package propagation

import (
	"math"
	"testing"

	"repro/internal/ids"
	"repro/internal/wgraph"
)

// growingView wraps a frozen graph but reports a mutable node count, the
// way an overlay whose base was swapped for a bigger graph would. Nodes
// beyond the base have no edges.
type growingView struct {
	base *wgraph.Graph
	n    int
}

func (v *growingView) NumNodes() int { return v.n }
func (v *growingView) NumEdges() int { return v.base.NumEdges() }

func (v *growingView) Out(u ids.UserID) ([]ids.UserID, []float32) {
	if int(u) >= v.base.NumNodes() {
		return nil, nil
	}
	return v.base.Out(u)
}

func (v *growingView) In(u ids.UserID) ([]ids.UserID, []float32) {
	if int(u) >= v.base.NumNodes() {
		return nil, nil
	}
	return v.base.In(u)
}

var _ wgraph.View = (*growingView)(nil)

// Regression: the kernel used to size its dense scratch once and then
// index it with the view's *current* NumNodes, so a view that grew
// panicked. One Incremental must regrow its scratch defensively.
func TestPropagateSurvivesGrownView(t *testing.T) {
	base := paperGraph()
	gv := &growingView{base: base, n: base.NumNodes()}
	inc := NewIncremental(gv, DefaultConfig())

	before := oneShot(inc, []ids.UserID{nodeX})
	if len(before) == 0 {
		t.Fatal("propagation over base reached nobody")
	}

	// The view grows beyond the scratch the first call sized; seeding one
	// of the new (edgeless) nodes exercises every indexed access.
	gv.n = base.NumNodes() + 7
	grown := ids.UserID(base.NumNodes() + 3)
	res := oneShot(inc, []ids.UserID{nodeX, grown})
	if len(res) == 0 {
		t.Fatal("propagation over grown view reached nobody")
	}
	if p, ok := res[grown]; ok {
		t.Fatalf("edgeless grown seed %d scored %v", grown, p)
	}

	// Shrinking back must not leak stale tail state into the results.
	gv.n = base.NumNodes()
	again := oneShot(inc, []ids.UserID{nodeX})
	if len(again) != len(before) {
		t.Fatalf("results changed after grow/shrink cycle: %d vs %d users", len(again), len(before))
	}
	for u, p := range before {
		if math.Abs(again[u]-p) > 1e-12 {
			t.Fatalf("score drift after grow/shrink: %v vs %v", again, before)
		}
	}
}

func TestSchedulerDrop(t *testing.T) {
	s := NewScheduler(ids.Minute, ids.Hour, 12)
	s.Observe(1, 10, 0, 1)
	s.Observe(2, 11, 0, 1)
	s.Observe(3, 12, 0, 1)

	s.Drop(2)
	if s.Pending() != 2 {
		t.Fatalf("pending = %d after drop, want 2", s.Pending())
	}
	s.Drop(2) // dropping twice is a no-op
	s.Drop(99)

	got := s.Due(2 * ids.Hour)
	if len(got) != 2 {
		t.Fatalf("flushed %d batches, want 2", len(got))
	}
	for _, b := range got {
		if b.Tweet == 2 {
			t.Fatal("dropped tweet still flushed")
		}
	}
}
