package propagation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/linalg"
	"repro/internal/wgraph"
	"repro/internal/xrand"
)

// paperGraph reproduces the similarity graph of the paper's Figure 6 as
// used in Examples 4.3 and 5.1: u→v (0.3), u→w (0.5), w→x (0.5),
// w→y (0.4), v→y (0.1). Node x (id 3) shares tweet t1.
//
// The examples walk through: p(w) = (1·0.5 + 0·0.4)/2 = 0.25 and then
// p(u) = (0·0.3 + 0.25·0.5)/2 = 0.0625.
const (
	nodeU = ids.UserID(0)
	nodeV = ids.UserID(1)
	nodeW = ids.UserID(2)
	nodeX = ids.UserID(3)
	nodeY = ids.UserID(4)
)

func paperGraph() *wgraph.Graph {
	b := wgraph.NewBuilder(5, 5)
	b.AddEdge(nodeU, nodeV, 0.3)
	b.AddEdge(nodeU, nodeW, 0.5)
	b.AddEdge(nodeW, nodeX, 0.5)
	b.AddEdge(nodeW, nodeY, 0.4)
	b.AddEdge(nodeV, nodeY, 0.1)
	return b.Build()
}

func TestPaperWorkedExample(t *testing.T) {
	g := paperGraph()
	st := NewTweetState()
	NewIncremental(g, Config{Threshold: StaticThreshold(0), MaxIterations: 100}).AddSeeds(st, []ids.UserID{nodeX}, 1)

	got, _ := stateMaps(st)
	if math.Abs(got[nodeW]-0.25) > 1e-9 {
		t.Errorf("p(w) = %v, want 0.25 (Example 4.3)", got[nodeW])
	}
	if math.Abs(got[nodeU]-0.0625) > 1e-9 {
		t.Errorf("p(u) = %v, want 0.0625 (Example 5.1)", got[nodeU])
	}
	if _, ok := got[nodeV]; ok && got[nodeV] != 0 {
		t.Errorf("p(v) = %v, want 0 (y never shares)", got[nodeV])
	}
	if got[nodeX] != 1 {
		t.Errorf("p(x) = %v, want the seed pinned at 1", got[nodeX])
	}
	for _, u := range st.Changed {
		if u == nodeX {
			t.Error("seed x must not appear among the changed users")
		}
	}
}

// TestPropagateSeesReweightedEdge: a weight rewritten the way a refresh
// rewrites it (wgraph.SpliceOuts) moves the fixpoint accordingly.
func TestPropagateSeesReweightedEdge(t *testing.T) {
	// w trusts x more: p(w) = (0.9·1 + 0.4·0)/2 = 0.45.
	g := wgraph.SpliceOuts(paperGraph(), []wgraph.OutRun{
		{From: nodeW, To: []ids.UserID{nodeX, nodeY}, W: []float32{0.9, 0.4}},
	})
	got := oneShot(NewIncremental(g, Config{Threshold: StaticThreshold(0), MaxIterations: 100}), []ids.UserID{nodeX})
	if math.Abs(got[nodeW]-0.45) > 1e-6 {
		t.Errorf("p(w) = %v, want 0.45 after the reweight", got[nodeW])
	}
}

// An edge added by wgraph.SpliceOuts extends the propagation's reach.
func TestPropagateReachesThroughAddedEdge(t *testing.T) {
	// y now also trusts x: y gets a score, and w's mean over {x, y} grows.
	g := wgraph.SpliceOuts(paperGraph(), []wgraph.OutRun{
		{From: nodeY, To: []ids.UserID{nodeX}, W: []float32{0.8}},
	})
	got := oneShot(NewIncremental(g, Config{Threshold: StaticThreshold(0), MaxIterations: 100}), []ids.UserID{nodeX})
	if math.Abs(got[nodeY]-0.8) > 1e-6 {
		t.Errorf("p(y) = %v, want 0.8", got[nodeY])
	}
	// p(w) = (0.5·1 + 0.4·0.8)/2 = 0.41.
	if math.Abs(got[nodeW]-0.41) > 1e-6 {
		t.Errorf("p(w) = %v, want 0.41", got[nodeW])
	}
	// v now reachable: p(v) = 0.1·0.8 / 1 = 0.08.
	if math.Abs(got[nodeV]-0.08) > 1e-6 {
		t.Errorf("p(v) = %v, want 0.08", got[nodeV])
	}
}

func TestDensePropagateMatchesWorkedExample(t *testing.T) {
	g := paperGraph()
	p, iters := densePropagate(g, []ids.UserID{nodeX}, 1e-12, 100)
	if math.Abs(p[nodeW]-0.25) > 1e-9 || math.Abs(p[nodeU]-0.0625) > 1e-9 {
		t.Errorf("dense p(w)=%v p(u)=%v", p[nodeW], p[nodeU])
	}
	if p[nodeX] != 1 {
		t.Errorf("seed probability %v, want 1", p[nodeX])
	}
	if iters == 0 || iters > 10 {
		t.Errorf("dense iterations = %d, want small positive", iters)
	}
}

// randomSimGraph builds a random similarity graph with weights in (0,1].
func randomSimGraph(n, avgDeg int, seed uint64) *wgraph.Graph {
	rng := xrand.New(seed)
	b := wgraph.NewBuilder(n, n*avgDeg)
	b.SetNumNodes(n)
	for i := 0; i < n*avgDeg; i++ {
		b.AddEdge(ids.UserID(rng.Intn(n)), ids.UserID(rng.Intn(n)), float32(rng.Float64()*0.9+0.05))
	}
	return b.Build()
}

// stateMaps returns st's slots as a user → score map and a seed set, the
// shape RefState holds, so tests can compare the two states exactly.
func stateMaps(st *TweetState) (map[ids.UserID]float64, map[ids.UserID]struct{}) {
	p := make(map[ids.UserID]float64, st.Len())
	seeds := make(map[ids.UserID]struct{})
	for i := 0; i < st.Len(); i++ {
		p[st.User(i)] = st.Score(i)
		if st.IsSeed(i) {
			seeds[st.User(i)] = struct{}{}
		}
	}
	return p, seeds
}

// oneShot propagates seeds into a fresh TweetState on inc and returns
// the non-seed scores — the one-shot shape Engine.PropagateScores serves.
func oneShot(inc *Incremental, seeds []ids.UserID) map[ids.UserID]float64 {
	st := NewTweetState()
	inc.AddSeeds(st, seeds, len(seeds))
	out := make(map[ids.UserID]float64, st.Len())
	for i := 0; i < st.Len(); i++ {
		if !st.IsSeed(i) {
			out[st.User(i)] = st.Score(i)
		}
	}
	return out
}

// TestFrontierMatchesDense: one multi-seed AddSeeds call (the production
// frontier algorithm) and the literal Algorithm 1 must agree at the
// fixpoint.
func TestFrontierMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomSimGraph(40, 3, seed)
		rng := xrand.New(seed ^ 1)
		seeds := []ids.UserID{ids.UserID(rng.Intn(40)), ids.UserID(rng.Intn(40))}

		st := NewTweetState()
		NewIncremental(g, Config{Threshold: StaticThreshold(1e-12), MaxIterations: 500}).AddSeeds(st, seeds, len(seeds))
		dense, _ := densePropagate(g, seeds, 1e-12, 500)
		p, isSeeds := stateMaps(st)

		for u := 0; u < 40; u++ {
			if _, isSeed := isSeeds[ids.UserID(u)]; isSeed {
				continue
			}
			if math.Abs(dense[u]-p[ids.UserID(u)]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalMatchesBatch: adding seeds one at a time through the
// incremental engine must land on the same fixpoint as propagating the
// full seed set at once.
func TestIncrementalMatchesBatch(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomSimGraph(35, 3, seed)
		rng := xrand.New(seed ^ 2)
		seeds := []ids.UserID{
			ids.UserID(rng.Intn(35)), ids.UserID(rng.Intn(35)), ids.UserID(rng.Intn(35)),
		}
		cfg := Config{Threshold: StaticThreshold(1e-12), MaxIterations: 500}

		inc := NewIncremental(g, cfg)
		st := NewTweetState()
		for i, s := range seeds {
			inc.AddSeeds(st, []ids.UserID{s}, i+1)
		}
		dense, _ := densePropagate(g, seeds, 1e-12, 1000)
		p, isSeeds := stateMaps(st)
		for u := 0; u < 35; u++ {
			if _, isSeed := isSeeds[ids.UserID(u)]; isSeed {
				continue
			}
			if math.Abs(dense[u]-p[ids.UserID(u)]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFixpointMatchesLinearSolve: §5.2 — the propagation fixpoint solves
// the linear system Ap = b.
func TestFixpointMatchesLinearSolve(t *testing.T) {
	g := randomSimGraph(50, 4, 7)
	seeds := []ids.UserID{3, 17, 41}

	a, b, err := linearSystem(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsStrictlyDiagonallyDominant() {
		t.Fatal("propagation matrix must be strictly diagonally dominant (§5.3)")
	}
	x, _, err := linalg.Jacobi(a, b, nil, 1e-12, 2000)
	if err != nil {
		t.Fatalf("Jacobi: %v", err)
	}
	dense, _ := densePropagate(g, seeds, 1e-13, 2000)
	for u := range dense {
		if math.Abs(dense[u]-x[u]) > 1e-6 {
			t.Fatalf("node %d: fixpoint %v vs linear solve %v", u, dense[u], x[u])
		}
	}
}

// Probabilities stay in [0,1] and seeds stay pinned at 1.
func TestProbabilityBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomSimGraph(30, 4, seed)
		rng := xrand.New(seed ^ 3)
		seeds := []ids.UserID{ids.UserID(rng.Intn(30))}
		dense, _ := densePropagate(g, seeds, 1e-10, 500)
		for u, p := range dense {
			if p < 0 || p > 1 {
				return false
			}
			if ids.UserID(u) == seeds[0] && p != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Monotonicity: growing the seed set can only raise probabilities.
func TestSeedMonotonicity(t *testing.T) {
	g := randomSimGraph(40, 4, 11)
	p1, _ := densePropagate(g, []ids.UserID{5}, 1e-12, 1000)
	p2, _ := densePropagate(g, []ids.UserID{5, 9, 23}, 1e-12, 1000)
	for u := range p1 {
		if p2[u] < p1[u]-1e-9 {
			t.Fatalf("node %d: probability dropped %v -> %v when seeds grew", u, p1[u], p2[u])
		}
	}
}

func TestDynamicThreshold(t *testing.T) {
	d := NewDynamicThreshold()
	if g := d.Gamma(0); g != 0 {
		t.Errorf("Gamma(0) = %v, want 0", g)
	}
	prev := -1.0
	for _, m := range []int{1, 2, 5, 10, 20, 50, 100, 1000} {
		g := d.Gamma(m)
		if g < 0 || g > 1 {
			t.Fatalf("Gamma(%d) = %v out of [0,1]", m, g)
		}
		if g <= prev {
			t.Fatalf("Gamma not strictly increasing at m=%d", m)
		}
		prev = g
	}
	// γ(k) = 1/2 at the midpoint m = K.
	if g := d.Gamma(int(d.K)); math.Abs(g-0.5) > 1e-9 {
		t.Errorf("Gamma(K) = %v, want 0.5", g)
	}
	// Cutoff maps into [MinBeta, MaxBeta].
	if c := d.Cutoff(0); c != d.MinBeta {
		t.Errorf("Cutoff(0) = %v, want MinBeta", c)
	}
	if c := d.Cutoff(1 << 30); c > d.MaxBeta || c < d.MaxBeta*0.99 {
		t.Errorf("Cutoff(huge) = %v, want ≈MaxBeta", c)
	}
}

func TestStaticThreshold(t *testing.T) {
	if StaticThreshold(0.25).Cutoff(123) != 0.25 {
		t.Error("static threshold must ignore popularity")
	}
}

// Higher thresholds must recompute fewer users.
func TestThresholdReducesWork(t *testing.T) {
	g := randomSimGraph(300, 6, 21)
	loose := NewIncremental(g, Config{Threshold: StaticThreshold(1e-9), MaxIterations: 500})
	tight := NewIncremental(g, Config{Threshold: StaticThreshold(0.05), MaxIterations: 500})
	seeds := []ids.UserID{1, 2, 3}
	loose.AddSeeds(NewTweetState(), seeds, 3)
	tight.AddSeeds(NewTweetState(), seeds, 3)
	if tight.LastRecomputed() > loose.LastRecomputed() {
		t.Errorf("tight threshold recomputed %d users, loose %d", tight.LastRecomputed(), loose.LastRecomputed())
	}
}

// The kernel guards its own entry point: seeds outside the graph are
// dropped without a panic and leave the state empty. (Engine.PropagateScores
// also drops them at its boundary; see TestPropagateScoresDropsInvalidSeeds.)
func TestPropagateIgnoresOutOfRangeSeeds(t *testing.T) {
	g := paperGraph()
	inc := NewIncremental(g, DefaultConfig())
	st := NewTweetState()
	inc.AddSeeds(st, []ids.UserID{99}, 1)
	if st.Len() != 0 || len(st.Changed) != 0 {
		t.Errorf("expected empty state, got %d slots, %d changed", st.Len(), len(st.Changed))
	}
	if inc.LastRecomputed() != 0 {
		t.Errorf("out-of-range seed caused %d recomputations", inc.LastRecomputed())
	}
}
