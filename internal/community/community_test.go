package community

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/wgraph"
)

// twoCliques builds a similarity graph with two dense weighted cliques
// (0-3 and 4-7) joined by one weak bridge edge.
func twoCliques() *wgraph.Graph {
	var edges []wgraph.Edge
	clique := func(members []int, w float32) {
		for _, a := range members {
			for _, b := range members {
				if a != b {
					edges = append(edges, wgraph.Edge{From: ids.UserID(a), To: ids.UserID(b), Weight: w})
				}
			}
		}
	}
	clique([]int{0, 1, 2, 3}, 0.5)
	clique([]int{4, 5, 6, 7}, 0.4)
	edges = append(edges, wgraph.Edge{From: 3, To: 4, Weight: 0.01})
	return wgraph.NewFromEdges(10, edges) // 8, 9 isolated
}

func TestDetectTwoCliques(t *testing.T) {
	e := Detect(twoCliques(), nil, DefaultConfig())
	if e.NumClusters() != 2 {
		t.Fatalf("clusters = %d, want 2", e.NumClusters())
	}
	for _, pair := range [][2]ids.UserID{{0, 1}, {1, 2}, {4, 5}, {6, 7}} {
		if e.Label(pair[0]) != e.Label(pair[1]) {
			t.Errorf("users %d and %d in different clusters", pair[0], pair[1])
		}
	}
	if e.Label(0) == e.Label(5) {
		t.Errorf("cliques merged into one cluster")
	}
	if got := e.Label(8); got != NoCluster {
		t.Errorf("isolated user labelled %d, want NoCluster", got)
	}
	// Within-clique overlap must dominate cross-clique overlap.
	if in, out := e.Overlap(0, 1), e.Overlap(0, 5); in <= out {
		t.Errorf("Overlap(0,1)=%v not above Overlap(0,5)=%v", in, out)
	}
	if e.Overlap(8, 9) != 0 {
		t.Errorf("isolated users overlap nonzero")
	}
}

func TestOverlapProperties(t *testing.T) {
	e := Detect(twoCliques(), nil, DefaultConfig())
	for u := 0; u < e.NumUsers(); u++ {
		for v := 0; v < e.NumUsers(); v++ {
			a, b := e.Overlap(ids.UserID(u), ids.UserID(v)), e.Overlap(ids.UserID(v), ids.UserID(u))
			if a != b {
				t.Fatalf("Overlap(%d,%d)=%v != Overlap(%d,%d)=%v", u, v, a, v, u, b)
			}
			if a < 0 || a > 1 {
				t.Fatalf("Overlap(%d,%d)=%v out of [0,1]", u, v, a)
			}
		}
	}
	// Membership vectors are normalized and cluster-sorted.
	for u := 0; u < e.NumUsers(); u++ {
		cs, ws := e.Membership(ids.UserID(u))
		sum := 0.0
		for i := range cs {
			sum += float64(ws[i])
			if i > 0 && cs[i] <= cs[i-1] {
				t.Fatalf("user %d clusters not strictly ascending: %v", u, cs)
			}
		}
		if len(cs) > 0 && (sum < 0.999 || sum > 1.001) {
			t.Fatalf("user %d weights sum %v, want 1", u, sum)
		}
	}
}

func TestColdFillFromFollowees(t *testing.T) {
	sim := twoCliques()
	// User 8 (no similarity edges) follows 0, 1 (cluster A) and 4 (B);
	// user 9 follows nobody.
	b := graph.NewBuilder(10, 3)
	b.SetNumNodes(10)
	b.AddEdge(8, 0)
	b.AddEdge(8, 1)
	b.AddEdge(8, 4)
	e := Detect(sim, b.Build(), DefaultConfig())
	cs, ws := e.Membership(8)
	if len(cs) != 2 {
		t.Fatalf("cold vector len %d, want 2 clusters: %v %v", len(cs), cs, ws)
	}
	// Two of three followees are in 0's cluster: that entry must dominate.
	var wA, wB float32
	for i, c := range cs {
		switch c {
		case e.Label(0):
			wA = ws[i]
		case e.Label(4):
			wB = ws[i]
		}
	}
	if wA <= wB {
		t.Errorf("cold weights A=%v B=%v, want followee-majority cluster heavier", wA, wB)
	}
	// Cold user overlaps its majority community more than the other.
	if e.Overlap(8, 0) <= e.Overlap(8, 5) {
		t.Errorf("cold user overlap: A=%v B=%v", e.Overlap(8, 0), e.Overlap(8, 5))
	}
	if cs9, _ := e.Membership(9); len(cs9) != 0 {
		t.Errorf("followee-less cold user got vector %v", cs9)
	}
}

// TestDetectDeterministic pins the satellite contract: identical graphs
// produce identical labels and vectors across runs and worker counts —
// the synchronous-update guarantee asynchronous label propagation
// cannot give.
func TestDetectDeterministic(t *testing.T) {
	g := randomGraph(400, 2600, 42)
	base := Detect(g, nil, Config{TopC: 4, MaxRounds: 16, MinClusterSize: 2, Workers: 1})
	for _, workers := range []int{1, 2, 3, 8} {
		for run := 0; run < 3; run++ {
			got := Detect(g, nil, Config{TopC: 4, MaxRounds: 16, MinClusterSize: 2, Workers: workers})
			if !equalEmbeddings(base, got) {
				t.Fatalf("detection differs at workers=%d run=%d", workers, run)
			}
		}
	}
}

func equalEmbeddings(a, b *Embeddings) bool {
	if len(a.labels) != len(b.labels) || len(a.cluster) != len(b.cluster) {
		return false
	}
	for i := range a.labels {
		if a.labels[i] != b.labels[i] {
			return false
		}
	}
	for i := range a.ptr {
		if a.ptr[i] != b.ptr[i] {
			return false
		}
	}
	for i := range a.cluster {
		if a.cluster[i] != b.cluster[i] || a.weight[i] != b.weight[i] {
			return false
		}
	}
	return true
}

// randomGraph builds a deterministic pseudo-random weighted graph via
// splitmix64 (no math/rand dependency drift between Go versions).
func randomGraph(n, m int, seed uint64) *wgraph.Graph {
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	edges := make([]wgraph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := ids.UserID(next() % uint64(n))
		v := ids.UserID(next() % uint64(n))
		if u == v {
			continue
		}
		w := float32(next()%1000+1) / 1000
		edges = append(edges, wgraph.Edge{From: u, To: v, Weight: w})
	}
	return wgraph.NewFromEdges(n, edges)
}

func TestMeanVectorLenAndCovered(t *testing.T) {
	e := Detect(twoCliques(), nil, DefaultConfig())
	if e.Covered() != 8 {
		t.Fatalf("covered = %d, want 8", e.Covered())
	}
	if e.meanVectorLen() <= 0 {
		t.Fatalf("mean vector len %v", e.meanVectorLen())
	}
}

// OverlapSource must agree exactly with Overlap for every pair, across
// repeated BeginSource calls reusing one scratch.
func TestOverlapSourceMatchesOverlap(t *testing.T) {
	sim := randomGraph(120, 600, 3)
	e := Detect(sim, nil, DefaultConfig())
	var sc OverlapScratch
	for u := 0; u < e.NumUsers(); u += 7 {
		e.BeginSource(&sc, ids.UserID(u))
		for v := 0; v < e.NumUsers(); v++ {
			got := e.OverlapSource(&sc, ids.UserID(v))
			want := e.Overlap(ids.UserID(u), ids.UserID(v))
			if got != want {
				t.Fatalf("overlap(%d,%d): source %v, merge %v", u, v, got, want)
			}
		}
	}
}
