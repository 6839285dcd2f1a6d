package epoch

import (
	"math"
	"testing"

	"repro/internal/ids"
)

// TestMarksReset: a Reset forgets every mark of the previous epoch, Del
// unmarks within the epoch, and growing the set keeps old slots clean.
func TestMarksReset(t *testing.T) {
	var m Marks
	m.Reset(4)
	m.Add(2)
	m.Add(3)
	m.Del(3)
	if !m.Has(2) || m.Has(3) || m.Has(0) {
		t.Fatal("Add/Del/Has disagree within one epoch")
	}
	m.Reset(8)
	for u := ids.UserID(0); u < 8; u++ {
		if m.Has(u) {
			t.Fatalf("mark on %d survived Reset", u)
		}
	}
}

// TestMarksWrap: after 2^32 resets the epoch counter wraps; the
// hard-clear must forget every stale stamp, both those left from the
// epoch the counter restarts at (1) and those of the last epoch before
// the wrap (MaxUint32).
func TestMarksWrap(t *testing.T) {
	var m Marks
	m.Reset(4)
	m.Add(1) // stamped with epoch 1, the value the wrap restarts at
	m.epoch = math.MaxUint32
	m.Add(2) // stamped with the last epoch before the wrap
	m.Reset(4)
	if m.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.epoch)
	}
	for u := ids.UserID(0); u < 4; u++ {
		if m.Has(u) {
			t.Fatalf("stale mark on %d survived the wrap", u)
		}
	}
	m.Add(3)
	if !m.Has(3) || m.Has(0) {
		t.Fatal("marks broken after wrap")
	}
}

// TestVecReset: values read 0 after Reset, and Set reports exactly the
// first touch of each epoch.
func TestVecReset(t *testing.T) {
	var v Vec
	v.Reset(3)
	v.Set(1, 0.5)
	v.Reset(3)
	if v.Get(1) != 0 {
		t.Fatal("Vec value survived Reset")
	}
	if !v.Set(1, 0.25) {
		t.Fatal("Set after Reset must report first touch")
	}
	if v.Set(1, 0.75) {
		t.Fatal("second Set must not report first touch")
	}
	if v.Get(1) != 0.75 {
		t.Fatalf("Get = %v, want 0.75", v.Get(1))
	}
}

// TestIndexReset: an Index reads absent after Reset, and growing it keeps
// the new slots absent.
func TestIndexReset(t *testing.T) {
	var x Index
	x.Reset(3)
	x.Set(2, 7)
	if i, ok := x.Get(2); !ok || i != 7 {
		t.Fatalf("Get = %d, %v; want 7, true", i, ok)
	}
	x.Reset(6)
	for u := ids.UserID(0); u < 6; u++ {
		if _, ok := x.Get(u); ok {
			t.Fatalf("slot of %d survived Reset", u)
		}
	}
}
