package wgraph

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/xrand"
)

func triangle() *Graph {
	b := NewBuilder(3, 3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	b.AddEdge(2, 0, 0.75)
	return b.Build()
}

func TestBuildAndAccess(t *testing.T) {
	g := triangle()
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size %d/%d", g.NumNodes(), g.NumEdges())
	}
	to, w := g.Out(0)
	if !reflect.DeepEqual(to, []ids.UserID{1}) || w[0] != 0.5 {
		t.Errorf("Out(0) = %v %v", to, w)
	}
	from, wi := g.In(0)
	if !reflect.DeepEqual(from, []ids.UserID{2}) || wi[0] != 0.75 {
		t.Errorf("In(0) = %v %v", from, wi)
	}
	if g.OutDegree(1) != 1 || g.InDegree(1) != 1 {
		t.Error("degrees wrong")
	}
	if wt, ok := g.Weight(1, 2); !ok || wt != 0.25 {
		t.Errorf("Weight(1,2) = %v %v", wt, ok)
	}
	if _, ok := g.Weight(2, 1); ok {
		t.Error("Weight found a nonexistent edge")
	}
}

func TestDuplicateEdgeLastWins(t *testing.T) {
	g := NewFromEdges(2, []Edge{{0, 1, 0.1}, {0, 1, 0.9}})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if w, _ := g.Weight(0, 1); w != 0.9 {
		t.Errorf("duplicate resolution kept %v, want 0.9", w)
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddEdge(1, 1, 0.5)
	b.AddEdge(0, 1, 0.5)
	if g := b.Build(); g.NumEdges() != 1 {
		t.Fatalf("self loop survived: %d edges", g.NumEdges())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := triangle()
	g2 := NewFromEdges(3, g.Edges())
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Error("Edges→NewFromEdges did not round-trip")
	}
}

func TestMeanWeightAndActiveNodes(t *testing.T) {
	g := triangle()
	if m := g.MeanWeight(); math.Abs(m-0.5) > 1e-9 {
		t.Errorf("MeanWeight = %v", m)
	}
	if n := g.ActiveNodes(); n != 3 {
		t.Errorf("ActiveNodes = %d", n)
	}
	b := NewBuilder(5, 1)
	b.SetNumNodes(5)
	b.AddEdge(0, 1, 1)
	if n := b.Build().ActiveNodes(); n != 2 {
		t.Errorf("ActiveNodes = %d, want 2", n)
	}
	if m := NewFromEdges(2, nil).MeanWeight(); m != 0 {
		t.Errorf("empty MeanWeight = %v", m)
	}
}

// Property: In is the exact reverse of Out with matching weights.
func TestInOutConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		b := NewBuilder(30, 100)
		b.SetNumNodes(30)
		for i := 0; i < 100; i++ {
			b.AddEdge(ids.UserID(rng.Intn(30)), ids.UserID(rng.Intn(30)), float32(rng.Float64()))
		}
		g := b.Build()
		type e struct {
			a, b ids.UserID
			w    float32
		}
		fwd := map[e]bool{}
		n := 0
		for u := 0; u < 30; u++ {
			to, w := g.Out(ids.UserID(u))
			for i := range to {
				fwd[e{ids.UserID(u), to[i], w[i]}] = true
				n++
			}
		}
		m := 0
		for v := 0; v < 30; v++ {
			from, w := g.In(ids.UserID(v))
			for i := range from {
				if !fwd[e{from[i], ids.UserID(v), w[i]}] {
					return false
				}
				m++
			}
		}
		return n == m && n == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
