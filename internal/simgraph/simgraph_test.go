package simgraph

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/similarity"
	"repro/internal/wgraph"
)

// lineWorld builds a small follow graph 0→1→2→3, 0→4, and profiles where
// users 0,1,2 co-retweet tweet 0 (and 0,2 also tweet 1); user 3 retweets
// only tweet 9; user 4 retweets nothing.
func lineWorld() (*graph.Graph, *similarity.Store) {
	b := graph.NewBuilder(5, 4)
	b.SetNumNodes(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 4)
	g := b.Build()
	actions := []dataset.Action{
		{User: 0, Tweet: 0, Time: 1},
		{User: 1, Tweet: 0, Time: 2},
		{User: 2, Tweet: 0, Time: 3},
		{User: 0, Tweet: 1, Time: 4},
		{User: 2, Tweet: 1, Time: 5},
		{User: 3, Tweet: 9, Time: 6},
	}
	return g, similarity.NewStore(5, 10, actions)
}

func TestBuildRespectsTwoHopAndTau(t *testing.T) {
	g, store := lineWorld()
	cfg := DefaultConfig()
	cfg.Tau = 1e-6
	cfg.Workers = 2
	sg := Build(g, store, cfg)

	// 0 reaches {1,2} within 2 hops and co-retweets with both → edges.
	if _, ok := sg.Weight(0, 1); !ok {
		t.Error("missing edge 0→1")
	}
	if _, ok := sg.Weight(0, 2); !ok {
		t.Error("missing edge 0→2")
	}
	// 3 is 3 hops from 0: even though sim(0,3)=0 anyway, ensure no edge.
	if _, ok := sg.Weight(0, 3); ok {
		t.Error("edge beyond 2 hops")
	}
	// 4 has an empty profile: no edges at all.
	if sg.OutDegree(4) != 0 || sg.InDegree(4) != 0 {
		t.Error("cold-start user got edges")
	}
	// 1 reaches 2 (1 hop) and 3 (2 hops): edge only to 2 (sim>0).
	if _, ok := sg.Weight(1, 2); !ok {
		t.Error("missing edge 1→2")
	}
	if _, ok := sg.Weight(1, 3); ok {
		t.Error("edge to dissimilar user")
	}
	// Edge weights match the store's similarity.
	w, _ := sg.Weight(0, 2)
	if want := store.Sim(0, 2); float64(w) < want*0.999 || float64(w) > want*1.001 {
		t.Errorf("weight(0,2) = %v, want %v", w, want)
	}
}

func TestBuildTauFilters(t *testing.T) {
	g, store := lineWorld()
	cfg := DefaultConfig()
	cfg.Tau = 0.99 // nothing is that similar
	if sg := Build(g, store, cfg); sg.NumEdges() != 0 {
		t.Errorf("tau=0.99 left %d edges", sg.NumEdges())
	}
}

func TestBuildOneHop(t *testing.T) {
	g, store := lineWorld()
	cfg := DefaultConfig()
	cfg.Tau = 1e-6
	cfg.Hops = 1
	sg := Build(g, store, cfg)
	if _, ok := sg.Weight(0, 2); ok {
		t.Error("1-hop build produced a 2-hop edge")
	}
	if _, ok := sg.Weight(0, 1); !ok {
		t.Error("1-hop build lost a direct edge")
	}
}

func TestMaxOutDegreeCap(t *testing.T) {
	// Star follow graph: user 0 follows 1..9, all of whom co-retweet
	// tweet 0 with user 0 (plus distinct tweets to vary similarity).
	b := graph.NewBuilder(10, 9)
	b.SetNumNodes(10)
	var actions []dataset.Action
	actions = append(actions, dataset.Action{User: 0, Tweet: 0, Time: 0})
	for v := 1; v < 10; v++ {
		b.AddEdge(0, ids.UserID(v))
		actions = append(actions, dataset.Action{User: ids.UserID(v), Tweet: 0, Time: ids.Timestamp(v)})
		// Pad profiles with unique tweets so similarities differ.
		for p := 0; p < v; p++ {
			actions = append(actions, dataset.Action{User: ids.UserID(v), Tweet: ids.TweetID(10 + v*20 + p), Time: ids.Timestamp(100 + v)})
		}
	}
	slices.SortStableFunc(actions, func(a, b dataset.Action) int { return cmp.Compare(a.Time, b.Time) })
	store := similarity.NewStore(10, 300, actions)
	cfg := DefaultConfig()
	cfg.Tau = 1e-9
	cfg.MaxOutDegree = 3
	sg := Build(b.Build(), store, cfg)
	if got := sg.OutDegree(0); got != 3 {
		t.Fatalf("out-degree %d, want cap 3", got)
	}
	// The survivors must be the highest-similarity targets (small
	// profiles → high sim): users 1, 2, 3.
	for _, v := range []ids.UserID{1, 2, 3} {
		if _, ok := sg.Weight(0, v); !ok {
			t.Errorf("cap dropped top neighbour %d", v)
		}
	}
}

// The inverted-index kernel must produce a bit-identical graph to the
// pairwise reference path on a realistic generated dataset, across
// configs (caps on/off) and after streaming updates.
func TestBuildKernelMatchesPairwise(t *testing.T) {
	ds, err := gen.Generate(gen.DefaultConfig(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	store := similarity.NewStore(ds.NumUsers(), ds.NumTweets(), ds.Actions)
	configs := []Config{
		DefaultConfig(),
		{Tau: 1e-6, Hops: 2, MaxNeighborhood: 0, MaxOutDegree: 0},
		{Tau: 0.001, Hops: 2, MaxNeighborhood: 50, MaxOutDegree: 5},
		{Tau: 0.003, Hops: 1, MaxNeighborhood: 4000, MaxOutDegree: 25},
	}
	check := func(cfg Config, label string) {
		t.Helper()
		kernel := Build(ds.Graph, store, cfg)
		cfg.Pairwise = true
		ref := Build(ds.Graph, store, cfg)
		if kernel.NumEdges() != ref.NumEdges() {
			t.Fatalf("%s: kernel %d edges, pairwise %d", label, kernel.NumEdges(), ref.NumEdges())
		}
		if d := Diff(ref, kernel); d != (Delta{}) {
			t.Fatalf("%s: kernel graph differs from pairwise: %+v", label, d)
		}
	}
	for i, cfg := range configs {
		check(cfg, fmt.Sprintf("config %d", i))
	}
	// Stream some actions (posting lists maintained incrementally) and
	// re-check; also exercise updateWeights' batched path.
	for i := 0; i < 200; i++ {
		store.Observe(ids.UserID(i%ds.NumUsers()), ds.Actions[i%len(ds.Actions)].Tweet)
	}
	check(DefaultConfig(), "after observes")

	base := Build(ds.Graph, store, DefaultConfig())
	uw := Update(UpdateWeights, base, ds.Graph, store, DefaultConfig())
	for _, e := range uw.Edges() {
		if want := store.Sim(e.From, e.To); float64(e.Weight) != float64(float32(want)) {
			t.Fatalf("updateWeights edge %d→%d weight %v, pairwise %v", e.From, e.To, e.Weight, float32(want))
		}
	}
}

func TestCapNeighborhoodKeepsHopOne(t *testing.T) {
	// dist is non-decreasing (BFS order): 3 hop-1 nodes, 4 hop-2 nodes.
	nodes := []ids.UserID{1, 2, 3, 4, 5, 6, 7}
	dist := []int8{1, 1, 1, 2, 2, 2, 2}

	// Cap above len: untouched.
	if got := capNeighborhood(nodes, dist, 10); len(got) != 7 {
		t.Fatalf("cap 10 kept %d", len(got))
	}
	// Cap 0 = unlimited.
	if got := capNeighborhood(nodes, dist, 0); len(got) != 7 {
		t.Fatalf("cap 0 kept %d", len(got))
	}
	// Cap between h1 and len: trims only the hop-2 tail.
	got := capNeighborhood(nodes, dist, 5)
	if len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("cap 5 = %v", got)
	}
	// Cap below the hop-1 count: every hop-1 node survives anyway.
	got = capNeighborhood(nodes, dist, 2)
	if len(got) != 3 {
		t.Fatalf("cap 2 kept %d nodes, want all 3 hop-1", len(got))
	}
	for i, w := range got {
		if w != nodes[i] {
			t.Fatalf("cap reordered nodes: %v", got)
		}
	}
}

func TestMaxNeighborhoodNeverDropsFollowees(t *testing.T) {
	// Hub user 0 follows 30 users, all similar to 0; a tiny cap used to
	// truncate the followee list itself.
	b := graph.NewBuilder(31, 30)
	b.SetNumNodes(31)
	var actions []dataset.Action
	actions = append(actions, dataset.Action{User: 0, Tweet: 0, Time: 0})
	for v := 1; v <= 30; v++ {
		b.AddEdge(0, ids.UserID(v))
		actions = append(actions, dataset.Action{User: ids.UserID(v), Tweet: 0, Time: ids.Timestamp(v)})
	}
	store := similarity.NewStore(31, 1, actions)
	cfg := DefaultConfig()
	cfg.Tau = 1e-9
	cfg.MaxNeighborhood = 5
	cfg.MaxOutDegree = 0
	sg := Build(b.Build(), store, cfg)
	if got := sg.OutDegree(0); got != 30 {
		t.Fatalf("hub out-degree %d, want 30 (cap must not drop hop-1 followees)", got)
	}
}

func TestMeasure(t *testing.T) {
	g, store := lineWorld()
	cfg := DefaultConfig()
	cfg.Tau = 1e-6
	sg := Build(g, store, cfg)
	ch := Measure(sg, []ids.UserID{0, 1})
	if ch.Edges != sg.NumEdges() || ch.Nodes == 0 {
		t.Errorf("characteristics %+v", ch)
	}
	if ch.MeanSim <= 0 || ch.MeanOutDegree <= 0 {
		t.Errorf("characteristics %+v", ch)
	}
	if ch.String() == "" {
		t.Error("empty String()")
	}
}

func TestToUnweighted(t *testing.T) {
	g, store := lineWorld()
	cfg := DefaultConfig()
	cfg.Tau = 1e-6
	sg := Build(g, store, cfg)
	un := ToUnweighted(sg)
	if un.NumEdges() != sg.NumEdges() || un.NumNodes() != sg.NumNodes() {
		t.Fatalf("projection sizes differ")
	}
	to, _ := sg.Out(0)
	if len(un.Out(0)) != len(to) {
		t.Error("projection adjacency differs")
	}
}

func TestUpdateStrategies(t *testing.T) {
	g, store := lineWorld()
	cfg := DefaultConfig()
	cfg.Tau = 1e-6
	base := Build(g, store, cfg)

	// KeepOld returns the same graph.
	if got := Update(KeepOld, base, g, store, cfg); got != base {
		t.Error("KeepOld rebuilt the graph")
	}

	// New activity: user 3 now co-retweets tweet 1 with users 0 and 2.
	store.Observe(3, 1)

	// UpdateWeights only reweights existing edges: no new edge to 3.
	uw := Update(UpdateWeights, base, g, store, cfg)
	if _, ok := uw.Weight(2, 3); ok {
		t.Error("UpdateWeights added an edge")
	}
	if uw.NumEdges() > base.NumEdges() {
		t.Error("UpdateWeights grew the graph")
	}

	// FromScratch discovers the new edge 2→3 (distance 1, sim > 0 now).
	fs := Update(FromScratch, base, g, store, cfg)
	if _, ok := fs.Weight(2, 3); !ok {
		t.Error("FromScratch missed the new similarity edge")
	}

	// Crossfold explores the previous similarity graph; 0→2 exists in
	// base, so 0 can discover 2's new neighbours when they appear in the
	// crossfold exploration of the similarity graph itself.
	cf := Update(Crossfold, base, g, store, cfg)
	if cf.NumEdges() < base.NumEdges() {
		t.Errorf("crossfold shrank the graph: %d -> %d", base.NumEdges(), cf.NumEdges())
	}

	// Strategy names are stable (used in Figure 16 legends).
	names := map[UpdateStrategy]string{
		FromScratch: "from scratch", KeepOld: "old SimGraph",
		Crossfold: "crossfold", UpdateWeights: "SimGraph updated",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestUpdateWeightsDropsBelowTau(t *testing.T) {
	// Build a graph, then raise tau so every edge dies on reweight.
	g, store := lineWorld()
	cfg := DefaultConfig()
	cfg.Tau = 1e-6
	base := Build(g, store, cfg)
	cfg.Tau = 0.999
	uw := Update(UpdateWeights, base, g, store, cfg)
	if uw.NumEdges() != 0 {
		t.Errorf("UpdateWeights kept %d edges above tau=0.999", uw.NumEdges())
	}
}

func TestDiff(t *testing.T) {
	a := wgraph.NewFromEdges(3, []wgraph.Edge{{From: 0, To: 1, Weight: 0.5}, {From: 1, To: 2, Weight: 0.2}})
	b := wgraph.NewFromEdges(3, []wgraph.Edge{{From: 0, To: 1, Weight: 0.7}, {From: 2, To: 0, Weight: 0.1}})
	d := Diff(a, b)
	if d.EdgesReweighted != 1 || d.EdgesAdded != 1 || d.EdgesRemoved != 1 {
		t.Errorf("Diff = %+v", d)
	}
}
