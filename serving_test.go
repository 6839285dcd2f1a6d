package repro

import (
	"errors"
	"fmt"
	"testing"
)

func servingEngines(t *testing.T, n int) (*Dataset, []Action, []*Engine) {
	t.Helper()
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.Postpone = false // drains inside Recommend would depend on read order
	engines := make([]*Engine, n)
	for i := range engines {
		e, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return ds, test, engines
}

// TestObserveBatchMatchesSequentialObserve pins the batch write path to
// the exact semantics of the per-action path: same applied log, same
// recommendations for every user, bit for bit.
func TestObserveBatchMatchesSequentialObserve(t *testing.T) {
	ds, test, engines := servingEngines(t, 2)
	seq, bat := engines[0], engines[1]
	for _, a := range test {
		if err := seq.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
	errs := bat.ObserveBatch(test)
	if len(errs) != len(test) {
		t.Fatalf("ObserveBatch returned %d slots for %d actions", len(errs), len(test))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch slot %d: %v", i, err)
		}
	}
	a, b := seq.ObservedActions(), bat.ObservedActions()
	if len(a) != len(b) {
		t.Fatalf("observed logs diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observed[%d]: sequential %+v, batch %+v", i, a[i], b[i])
		}
	}
	now := test[len(test)-1].Time + 1
	const k = 10
	for u := 0; u < ds.NumUsers(); u++ {
		sr := seq.Recommend(UserID(u), k, now)
		br := bat.Recommend(UserID(u), k, now)
		if len(sr) != len(br) {
			t.Fatalf("user %d: sequential served %d, batch %d", u, len(sr), len(br))
		}
		for i := range sr {
			if sr[i] != br[i] {
				t.Fatalf("user %d rank %d: sequential %+v, batch %+v", u, i, sr[i], br[i])
			}
		}
	}
	m := bat.Metrics()
	if got := m.Counters["engine/observe/batches"]; got != 1 {
		t.Fatalf("engine/observe/batches = %d, want 1", got)
	}
	if got := m.Counters["engine/observe/actions"]; got != uint64(len(test)) {
		t.Fatalf("engine/observe/actions = %d, want %d", got, len(test))
	}
}

// TestObserveBatchRejectsInvalidSlots checks slot alignment: an invalid
// action is rejected in place without derailing the rest of the batch.
func TestObserveBatchRejectsInvalidSlots(t *testing.T) {
	ds, test, engines := servingEngines(t, 1)
	e := engines[0]
	batch := make([]Action, 0, len(test)+1)
	batch = append(batch, test[:3]...)
	batch = append(batch, Action{User: test[0].User, Tweet: TweetID(ds.NumTweets()), Time: test[0].Time})
	batch = append(batch, test[3:6]...)
	errs := e.ObserveBatch(batch)
	for i, err := range errs {
		if i == 3 {
			if err == nil {
				t.Fatal("out-of-range tweet accepted")
			}
			continue
		}
		if err != nil {
			t.Fatalf("valid slot %d rejected: %v", i, err)
		}
	}
	if got := len(e.ObservedActions()); got != 6 {
		t.Fatalf("applied %d actions, want 6 (the valid slots)", got)
	}
}

// groupSyncLog is a buffered ActionLog whose per-record appends succeed
// but whose group commit fails: exactly the shape ObserveBatch must
// downgrade to per-slot degraded errors. It also counts sync calls —
// the batch contract is ONE durability wait per batch.
type groupSyncLog struct {
	n     uint64
	syncs int
	fail  bool
}

func (l *groupSyncLog) Append(a Action) (uint64, error)         { l.n++; return l.n - 1, nil }
func (l *groupSyncLog) AppendBuffered(a Action) (uint64, error) { l.n++; return l.n - 1, nil }
func (l *groupSyncLog) NextIndex() uint64                       { return l.n }
func (l *groupSyncLog) SyncAfterAppend() error {
	l.syncs++
	if l.fail {
		return fmt.Errorf("stub group sync failed: %w", ErrWALRecordLogged)
	}
	return nil
}

// TestObserveBatchGroupCommit pins both halves of the group-commit
// contract: a clean batch pays exactly one durability wait, and a
// failed wait degrades every logged slot while keeping the actions
// applied (recovery may replay them; see Observe's contract).
func TestObserveBatchGroupCommit(t *testing.T) {
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	wal := &groupSyncLog{}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.WAL = wal
	e, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	half := len(test) / 2
	for i, err := range e.ObserveBatch(test[:half]) {
		if err != nil {
			t.Fatalf("clean batch slot %d: %v", i, err)
		}
	}
	if wal.syncs != 1 {
		t.Fatalf("clean batch of %d paid %d durability waits, want 1", half, wal.syncs)
	}

	wal.fail = true
	errs := e.ObserveBatch(test[half:])
	for i, err := range errs {
		if !errors.Is(err, ErrWALRecordLogged) {
			t.Fatalf("degraded batch slot %d: %v, want ErrWALRecordLogged wrap", i, err)
		}
	}
	if wal.syncs != 2 {
		t.Fatalf("degraded batch paid %d extra durability waits, want 1", wal.syncs-1)
	}
	if got := len(e.ObservedActions()); got != len(test) {
		t.Fatalf("applied %d actions, want %d (degraded slots stay applied)", got, len(test))
	}
	if got := e.Metrics().Counters["engine/wal/degraded_appends"]; got != uint64(len(test)-half) {
		t.Fatalf("engine/wal/degraded_appends = %d, want %d", got, len(test)-half)
	}
}

// TestSetOnScoresChangedFires covers the cache-invalidation hook: an
// observe fires it with the acting user, a graph refresh fires it with
// nil (assume everything changed), and installing nil uninstalls it.
func TestSetOnScoresChangedFires(t *testing.T) {
	_, test, engines := servingEngines(t, 1)
	e := engines[0]
	// The hook may run under engine locks; it must only record, never
	// call back into the Engine. Fires are synchronous here (no drain
	// workers: Postpone is off), so no mutex is needed in this test.
	var gotNil bool
	fires := 0
	seen := make(map[UserID]bool)
	e.SetOnScoresChanged(func(users []UserID) {
		fires++
		if users == nil {
			gotNil = true
			return
		}
		for _, u := range users {
			seen[u] = true
		}
	})
	a := test[0]
	if err := e.Observe(a.User, a.Tweet, a.Time); err != nil {
		t.Fatal(err)
	}
	if !seen[a.User] {
		t.Fatalf("hook never saw acting user %d (saw %v)", a.User, seen)
	}
	if gotNil {
		t.Fatal("observe fired a nil (full) invalidation")
	}
	e.RefreshGraphStats(UpdateIncremental)
	if !gotNil {
		t.Fatal("graph refresh did not fire the full (nil) invalidation")
	}

	e.SetOnScoresChanged(nil)
	before := fires
	if err := e.Observe(test[1].User, test[1].Tweet, test[1].Time); err != nil {
		t.Fatal(err)
	}
	if fires != before {
		t.Fatalf("uninstalled hook fired %d more times", fires-before)
	}
}
