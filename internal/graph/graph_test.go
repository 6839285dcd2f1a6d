package graph

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/xrand"
)

// buildDiamond returns the 4-node graph 0→1, 0→2, 1→3, 2→3.
func buildDiamond() *Graph {
	b := NewBuilder(4, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	return b.Build()
}

func TestBuildBasics(t *testing.T) {
	g := buildDiamond()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.Out(0); !reflect.DeepEqual(got, []ids.UserID{1, 2}) {
		t.Errorf("Out(0) = %v", got)
	}
	if got := g.In(3); !reflect.DeepEqual(got, []ids.UserID{1, 2}) {
		t.Errorf("In(3) = %v", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 {
		t.Errorf("degrees of 0: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
}

func TestBuildDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddEdge(1, 2)
	b.AddEdge(1, 2) // duplicate
	b.AddEdge(2, 2) // self loop ignored
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !slices.Contains(g.Out(1), 2) || slices.Contains(g.Out(2), 2) || slices.Contains(g.Out(2), 1) {
		t.Error("edge set wrong after dedup")
	}
}

func TestSetNumNodesIsolated(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddEdge(0, 1)
	b.SetNumNodes(10)
	g := b.Build()
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
	if g.OutDegree(9) != 0 {
		t.Error("isolated node has edges")
	}
}

func TestBFSDistances(t *testing.T) {
	g := buildDiamond()
	dist := g.BFS(0, nil)
	want := []int32{0, 1, 1, 2}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("BFS(0) = %v, want %v", dist, want)
	}
	dist = g.BFS(3, dist)
	if dist[0] != Unreachable || dist[3] != 0 {
		t.Errorf("BFS(3) = %v", dist)
	}
}

func TestBFSBoundedMatchesFullBFS(t *testing.T) {
	g := randomGraph(200, 4, 99)
	full := g.BFS(5, nil)
	nodes, dist := bfsBounded(g, 5, 2)
	got := map[ids.UserID]int8{}
	for i, u := range nodes {
		got[u] = dist[i]
	}
	for v, d := range full {
		u := ids.UserID(v)
		if u == 5 {
			continue
		}
		if d >= 1 && d <= 2 {
			if got[u] != int8(d) {
				t.Fatalf("node %d: bounded dist %d, full dist %d", u, got[u], d)
			}
			delete(got, u)
		}
	}
	if len(got) != 0 {
		t.Fatalf("bounded BFS found extra nodes: %v", got)
	}
}

// A reused BoundedBFS must return the same frontier as one-off calls,
// with distances non-decreasing (capNeighborhood and the hop-1 cap rely
// on that ordering).
func TestBoundedBFSReuse(t *testing.T) {
	g := randomGraph(300, 5, 42)
	var b BoundedBFS
	for src := 0; src < 300; src += 7 {
		for _, hops := range []int{1, 2, 3} {
			wantNodes, wantDist := bfsBounded(g, ids.UserID(src), hops)
			gotNodes, gotDist := b.Explore(g, ids.UserID(src), hops)
			if !reflect.DeepEqual(append([]ids.UserID{}, gotNodes...), wantNodes) {
				t.Fatalf("src %d hops %d: reused scratch nodes differ", src, hops)
			}
			if !reflect.DeepEqual(append([]int8{}, gotDist...), wantDist) {
				t.Fatalf("src %d hops %d: reused scratch dists differ", src, hops)
			}
			for i := 1; i < len(gotDist); i++ {
				if gotDist[i] < gotDist[i-1] {
					t.Fatalf("src %d: distances not non-decreasing: %v", src, gotDist)
				}
			}
		}
	}
}

func TestNeighborhood2(t *testing.T) {
	g := buildDiamond()
	n2, _ := bfsBounded(g, 0, 2) // the paper's N2(0)
	sort.Slice(n2, func(i, j int) bool { return n2[i] < n2[j] })
	if !reflect.DeepEqual(n2, []ids.UserID{1, 2, 3}) {
		t.Fatalf("N2(0) = %v", n2)
	}
	if n2, _ := bfsBounded(g, 3, 2); len(n2) != 0 {
		t.Error("N2(3) should be empty")
	}
}

func TestDistance(t *testing.T) {
	g := buildDiamond()
	cases := []struct {
		u, v ids.UserID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 2}, {3, 0, -1}, {1, 2, -1},
	}
	for _, c := range cases {
		if got := g.Distance(c.u, c.v); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
}

func TestPathLengthDistribution(t *testing.T) {
	g := buildDiamond()
	hist, imp := g.PathLengthDistribution([]ids.UserID{0})
	// From 0: two nodes at d=1, one at d=2.
	if hist[1] != 2 || hist[2] != 1 || imp != 0 {
		t.Fatalf("hist=%v imp=%d", hist, imp)
	}
	_, imp = g.PathLengthDistribution([]ids.UserID{3})
	if imp != 3 {
		t.Fatalf("from sink, impossible = %d, want 3", imp)
	}
}

func TestAveragePathLength(t *testing.T) {
	g := buildDiamond()
	if got := g.AveragePathLength([]ids.UserID{0}); got != (1+1+2)/3.0 {
		t.Fatalf("avg path = %v", got)
	}
}

func TestEstimateDiameterOnPath(t *testing.T) {
	// Undirected-ish path 0-1-2-3-4 (both directions) has diameter 4.
	b := NewBuilder(5, 8)
	for i := 0; i < 4; i++ {
		b.AddEdge(ids.UserID(i), ids.UserID(i+1))
		b.AddEdge(ids.UserID(i+1), ids.UserID(i))
	}
	g := b.Build()
	if got := g.EstimateDiameter([]ids.UserID{2}); got != 4 {
		t.Fatalf("diameter = %d, want 4", got)
	}
}

func TestDegrees(t *testing.T) {
	g := buildDiamond()
	s := g.Degrees()
	if s.MaxOut != 2 || s.MaxIn != 2 || s.AvgOut != 1.0 {
		t.Fatalf("degree stats %+v", s)
	}
}

// randomGraph builds a reproducible random digraph.
func randomGraph(n, avgDeg int, seed uint64) *Graph {
	rng := xrand.New(seed)
	b := NewBuilder(n, n*avgDeg)
	b.SetNumNodes(n)
	for i := 0; i < n*avgDeg; i++ {
		b.AddEdge(ids.UserID(rng.Intn(n)), ids.UserID(rng.Intn(n)))
	}
	return b.Build()
}

// Property: In is exactly the reverse of Out (same edge multiset).
func TestInIsReverseOfOut(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(60, 3, seed)
		type e struct{ a, b ids.UserID }
		fwd := map[e]bool{}
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Out(ids.UserID(u)) {
				fwd[e{ids.UserID(u), v}] = true
			}
		}
		cnt := 0
		for v := 0; v < g.NumNodes(); v++ {
			for _, u := range g.In(ids.UserID(v)) {
				if !fwd[e{u, ids.UserID(v)}] {
					return false
				}
				cnt++
			}
		}
		return cnt == len(fwd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: adjacency lists are sorted and free of duplicates/self-loops.
func TestAdjacencyInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(40, 4, seed)
		for u := 0; u < g.NumNodes(); u++ {
			out := g.Out(ids.UserID(u))
			for i, v := range out {
				if v == ids.UserID(u) {
					return false
				}
				if i > 0 && out[i-1] >= v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// ExploreFiltered verdict semantics on a small fan:
//
//	0 → 1 → 3
//	0 → 2 → 4, 2 → 5
//
// Keep retains a node without traversing through it; Drop hides its whole
// subtree; KeepExpand behaves like plain Explore.
func TestExploreFilteredVerdicts(t *testing.T) {
	b := NewBuilder(6, 5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 4)
	b.AddEdge(2, 5)
	g := b.Build()

	var bfs BoundedBFS
	keep := func(nodes []ids.UserID) map[ids.UserID]bool {
		m := map[ids.UserID]bool{}
		for _, u := range nodes {
			m[u] = true
		}
		return m
	}

	// All KeepExpand: identical to Explore.
	nodes, _ := bfs.ExploreFiltered(g, 0, 2, func(ids.UserID, int8) Verdict { return KeepExpand })
	want, _ := bfsBounded(g, 0, 2)
	if len(nodes) != len(want) {
		t.Fatalf("KeepExpand-everything: got %v want %v", nodes, want)
	}

	// Keep node 2: it stays a result but 4 and 5 are never discovered.
	nodes, _ = bfs.ExploreFiltered(g, 0, 2, func(v ids.UserID, _ int8) Verdict {
		if v == 2 {
			return Keep
		}
		return KeepExpand
	})
	got := keep(nodes)
	if !got[1] || !got[2] || !got[3] || got[4] || got[5] {
		t.Fatalf("Keep(2): got %v", nodes)
	}

	// Drop node 2: it vanishes along with its subtree.
	nodes, _ = bfs.ExploreFiltered(g, 0, 2, func(v ids.UserID, _ int8) Verdict {
		if v == 2 {
			return Drop
		}
		return KeepExpand
	})
	got = keep(nodes)
	if !got[1] || got[2] || !got[3] || got[4] || got[5] {
		t.Fatalf("Drop(2): got %v", nodes)
	}

	// Hops are reported correctly to the predicate.
	hops := map[ids.UserID]int8{}
	bfs.ExploreFiltered(g, 0, 2, func(v ids.UserID, hop int8) Verdict {
		hops[v] = hop
		return KeepExpand
	})
	for v, wantHop := range map[ids.UserID]int8{1: 1, 2: 1, 3: 2, 4: 2, 5: 2} {
		if hops[v] != wantHop {
			t.Fatalf("node %d: hop %d, want %d", v, hops[v], wantHop)
		}
	}
}

// bfsBounded is a one-off BoundedBFS.Explore on fresh scratch.
func bfsBounded(g *Graph, src ids.UserID, maxHops int) ([]ids.UserID, []int8) {
	var b BoundedBFS
	return b.Explore(g, src, maxHops)
}
