package propagation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/xrand"
)

// Differential tests pinning the epoch-stamped kernel to the frozen
// reference implementation (reference.go) and the literal Algorithm 1
// (densePropagate). The kernel recomputes scores in exactly the same
// order as the reference, so that comparison is exact, not tolerance-
// based — any drift means the kernel changed the arithmetic, not just
// the bookkeeping.

// TestIncrementalMatchesRefExact: the epoch-stamped AddSeeds processes the
// same queue in the same order with the same float additions as the
// reference, so the sparse states must stay bit-identical across a whole
// sequence of calls. Changed is compared as a set (the reference emits it
// in map order).
func TestIncrementalMatchesRefExact(t *testing.T) {
	f := func(seed uint64) bool {
		n := 20 + int(seed%40)
		g := randomSimGraph(n, 3, seed)
		cfg := Config{Threshold: StaticThreshold(1e-10), MaxIterations: 300}
		inc := NewIncremental(g, cfg)
		ref := NewRefIncremental(g, cfg)
		st, rst := NewTweetState(), NewRefState()
		rng := xrand.New(seed ^ 7)
		for call := 0; call < 6; call++ {
			batch := make([]ids.UserID, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = ids.UserID(rng.Intn(n + 5)) // occasionally out of range
			}
			inc.AddSeeds(st, batch, call+1)
			ref.AddSeeds(rst, batch, call+1)
			sp, sseeds := stateMaps(st)
			if st.Len() != len(rst.P) || len(sp) != len(rst.P) || len(sseeds) != len(rst.Seeds) {
				return false // st.Len() > len(sp) would mean a user holds two slots
			}
			for u, p := range rst.P {
				if sp[u] != p {
					return false
				}
			}
			if len(st.Changed) != len(rst.Changed) {
				return false
			}
			set := make(map[ids.UserID]bool, len(st.Changed))
			for _, u := range st.Changed {
				set[u] = true
			}
			for _, u := range rst.Changed {
				if !set[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalScratchReuseAcrossTweets interleaves one Incremental
// across many tweet states: dense scratch from one tweet's call must
// never bleed into another tweet's fixpoint.
func TestIncrementalScratchReuseAcrossTweets(t *testing.T) {
	const n, tweets = 50, 8
	g := randomSimGraph(n, 4, 17)
	cfg := Config{Threshold: StaticThreshold(1e-10), MaxIterations: 300}
	inc := NewIncremental(g, cfg)
	shared := make([]*TweetState, tweets)
	isolated := make([]*TweetState, tweets)
	for i := range shared {
		shared[i] = NewTweetState()
		isolated[i] = NewTweetState()
	}
	rng := xrand.New(23)
	for call := 0; call < 40; call++ {
		tw := call % tweets
		s := ids.UserID(rng.Intn(n))
		inc.AddSeeds(shared[tw], []ids.UserID{s}, call+1)
		// A private propagator per tweet cannot suffer cross-tweet leaks.
		NewIncremental(g, cfg).AddSeeds(isolated[tw], []ids.UserID{s}, call+1)
	}
	for tw := range shared {
		sp, _ := stateMaps(shared[tw])
		ip, _ := stateMaps(isolated[tw])
		if len(sp) != len(ip) {
			t.Fatalf("tweet %d: %d scored users vs %d isolated", tw, len(sp), len(ip))
		}
		for u, p := range ip {
			if sp[u] != p {
				t.Fatalf("tweet %d user %d: %v vs isolated %v", tw, u, sp[u], p)
			}
		}
	}
}

// TestIncrementalStats: the per-call counters must reflect actual work.
func TestIncrementalStats(t *testing.T) {
	g := paperGraph()
	inc := NewIncremental(g, Config{Threshold: StaticThreshold(0), MaxIterations: 100})
	st := NewTweetState()
	inc.AddSeeds(st, []ids.UserID{nodeX}, 1)
	if inc.LastRecomputed() == 0 {
		t.Error("LastRecomputed = 0 after a propagation that changed scores")
	}
	if inc.LastRounds() < 2 {
		t.Errorf("LastRounds = %d, want >= 2 (x reaches u through w)", inc.LastRounds())
	}
	inc.AddSeeds(st, nil, 1)
	if inc.LastRecomputed() != 0 || inc.LastRounds() != 0 {
		t.Errorf("empty batch did work: recomputed=%d rounds=%d", inc.LastRecomputed(), inc.LastRounds())
	}
}

// TestBudgetHitReported: with no threshold the ablation graph never
// converges inside the recomputation budget, and AddSeeds must say so;
// at DefaultConfig the kernel tests' small graphs converge and report no
// hit, and a call that converges clears the previous call's flag.
func TestBudgetHitReported(t *testing.T) {
	g, seeds := ablationGraphSeeds()
	cfg := DefaultConfig()
	cfg.Threshold = StaticThreshold(0)
	inc := NewIncremental(g, cfg)
	inc.AddSeeds(NewTweetState(), seeds, len(seeds))
	if !inc.LastBudgetHit() {
		t.Fatalf("threshold 0 on %d nodes: no budget hit after %d recomputations", ablationNodes, inc.LastRecomputed())
	}
	if want := cfg.MaxIterations * 4096; inc.LastRecomputed() != want {
		t.Fatalf("budget hit after %d recomputations, want %d", inc.LastRecomputed(), want)
	}
	inc.AddSeeds(NewTweetState(), nil, 1)
	if inc.LastBudgetHit() {
		t.Fatal("empty batch kept the previous call's budget hit")
	}

	for seed := uint64(0); seed < 40; seed++ {
		n := 20 + int(seed%40)
		g := randomSimGraph(n, 3, seed)
		inc := NewIncremental(g, DefaultConfig())
		st := NewTweetState()
		rng := xrand.New(seed ^ 7)
		for call := 0; call < 6; call++ {
			inc.AddSeeds(st, []ids.UserID{ids.UserID(rng.Intn(n))}, call+1)
			if inc.LastBudgetHit() {
				t.Fatalf("graph seed %d call %d: budget hit at DefaultConfig after %d recomputations", seed, call, inc.LastRecomputed())
			}
		}
	}
}

// FuzzIncremental drives multi-call AddSeeds sequences against both the
// frozen reference (exact) and the dense oracle (tolerance), with seed
// IDs that may fall outside the graph.
func FuzzIncremental(f *testing.F) {
	f.Add(uint64(7), uint8(1), uint8(2), uint8(3))
	f.Add(uint64(99), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(31337), uint8(255), uint8(17), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c uint8) {
		n := 10 + int(seed%40)
		g := randomSimGraph(n, 3, seed)
		cfg := Config{Threshold: StaticThreshold(1e-12), MaxIterations: 500}
		inc := NewIncremental(g, cfg)
		ref := NewRefIncremental(g, cfg)
		st, rst := NewTweetState(), NewRefState()
		var all []ids.UserID
		for i, s := range []uint8{a, b, c} {
			u := ids.UserID(int(s) % (n + 5))
			inc.AddSeeds(st, []ids.UserID{u}, i+1)
			ref.AddSeeds(rst, []ids.UserID{u}, i+1)
			if int(u) < n {
				all = append(all, u)
			}
		}
		sp, sseeds := stateMaps(st)
		if len(sp) != len(rst.P) {
			t.Fatalf("kernel scored %d users, reference %d", len(sp), len(rst.P))
		}
		for u, p := range rst.P {
			if sp[u] != p {
				t.Fatalf("user %d: kernel %v, reference %v", u, sp[u], p)
			}
		}
		if len(all) == 0 {
			return
		}
		dense, _ := densePropagate(g, all, 1e-12, 1000)
		for u := 0; u < n; u++ {
			if _, isSeed := sseeds[ids.UserID(u)]; isSeed {
				continue
			}
			if math.Abs(dense[u]-sp[ids.UserID(u)]) > 1e-6 {
				t.Fatalf("node %d: incremental %v vs dense %v", u, sp[ids.UserID(u)], dense[u])
			}
		}
	})
}

// TestLinearSystemIgnoresOutOfRangeSeeds: the §5.2 matrix construction
// must skip out-of-range seed IDs like AddSeeds does.
func TestLinearSystemIgnoresOutOfRangeSeeds(t *testing.T) {
	g := paperGraph()
	a, bvec, err := linearSystem(g, []ids.UserID{nodeX, 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != g.NumNodes() || len(bvec) != g.NumNodes() {
		t.Fatalf("system size %dx%d", a.Rows, len(bvec))
	}
	// Only the in-range seed contributes a pinned row.
	if bvec[nodeX] != 1 {
		t.Error("in-range seed not pinned")
	}
}

// TestScoresNeverDecrease pins the invariant simgraph's pull-based reads
// rest on: across successive AddSeeds calls into one state, no slot moves
// and no score falls, at the static and at the dynamic threshold. Every
// recompute sums the same products in the same order over inputs that
// only grew since the last one (seeds only join, and each input is
// itself such a recompute), and IEEE rounding is monotone, so this holds
// bit for bit, not just up to a tolerance. A pooled max over every score
// a user was ever given is therefore always the state's live score.
func TestScoresNeverDecrease(t *testing.T) {
	for _, th := range []Threshold{StaticThreshold(1e-6), NewDynamicThreshold()} {
		for seed := uint64(0); seed < 60; seed++ {
			n := 20 + int(seed%80)
			g := randomSimGraph(n, 2+int(seed%5), seed)
			inc := NewIncremental(g, Config{Threshold: th, MaxIterations: 200})
			st := NewTweetState()
			rng := xrand.New(seed ^ 0x5eed)
			var users []ids.UserID
			var prev []float64
			for call := 0; call < 12; call++ {
				batch := make([]ids.UserID, 1+rng.Intn(3))
				for i := range batch {
					batch[i] = ids.UserID(rng.Intn(n))
				}
				inc.AddSeeds(st, batch, call+1)
				for i := range prev {
					if st.User(i) != users[i] {
						t.Fatalf("%T graph %d call %d: slot %d moved from user %d to %d", th, seed, call, i, users[i], st.User(i))
					}
					if st.Score(i) < prev[i] {
						t.Fatalf("%T graph %d call %d: user %d fell from %v to %v", th, seed, call, users[i], prev[i], st.Score(i))
					}
				}
				users, prev = users[:0], prev[:0]
				for i := 0; i < st.Len(); i++ {
					users = append(users, st.User(i))
					prev = append(prev, st.Score(i))
				}
			}
		}
	}
}
