package repro

// One benchmark per paper table/figure plus the DESIGN.md ablations.
//
// The expensive artifacts (dataset, replay of all four methods) are built
// once per `go test -bench` process at a reduced scale and shared; each
// figure benchmark then times the computation that regenerates its rows
// from the raw replay, and reports a headline value (hits, F1, …) as a
// custom metric so the paper-shape can be eyeballed straight from the
// bench output. Full-scale numbers come from cmd/experiments.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/recsys"
	"repro/internal/simgraph"
	"repro/internal/similarity"
	"repro/internal/stats"

	bayesrec "repro/internal/bayes"
	cfrec "repro/internal/cf"
	gjrec "repro/internal/graphjet"
)

const (
	benchUsers = 1200
	benchSeed  = 1
)

var benchState struct {
	once    sync.Once
	ds      *dataset.Dataset
	replay  *eval.Replay
	runs    map[string]*eval.MethodRun
	metrics map[string]*eval.Metrics
	store   *similarity.Store
}

func benchSetup(b *testing.B) {
	b.Helper()
	defer b.ResetTimer() // the shared one-time setup must not be billed
	benchState.once.Do(func() {
		cfg := gen.DefaultConfig(benchUsers, benchSeed)
		ds, err := gen.Generate(cfg)
		if err != nil {
			panic(err)
		}
		opts := eval.DefaultOptions()
		opts.SamplePerClass = 60
		opts.KMax = 100
		r, err := eval.NewReplay(ds, opts)
		if err != nil {
			panic(err)
		}
		runs := map[string]*eval.MethodRun{}
		metrics := map[string]*eval.Metrics{}
		methods := []recsys.Recommender{
			simgraph.NewRecommender(simgraph.DefaultRecommenderConfig()),
			cfrec.New(cfrec.DefaultConfig()),
			bayesrec.New(bayesrec.DefaultConfig()),
			gjrec.New(gjrec.DefaultConfig()),
		}
		for _, m := range methods {
			run, err := r.Run(m)
			if err != nil {
				panic(err)
			}
			runs[m.Name()] = run
			metrics[m.Name()] = r.Compute(run)
		}
		benchState.ds = ds
		benchState.replay = r
		benchState.runs = runs
		benchState.metrics = metrics
		benchState.store = r.Ctx.Store
	})
}

// ---------------------------------------------------------------------------
// Section 3 (Tables 1–3, Figures 1–4)

func BenchmarkTable1DatasetFeatures(b *testing.B) {
	benchSetup(b)
	var f stats.DatasetFeatures
	for i := 0; i < b.N; i++ {
		f = stats.Features(benchState.ds, 16, benchSeed)
	}
	b.ReportMetric(f.AvgPathLength, "avg-path")
	b.ReportMetric(float64(f.Edges), "edges")
}

func BenchmarkFigure1PathDistribution(b *testing.B) {
	benchSetup(b)
	var p stats.PathDistribution
	for i := 0; i < b.N; i++ {
		p = stats.Paths(benchState.ds.Graph, 16, benchSeed)
	}
	if len(p.Hist) > 2 {
		b.ReportMetric(float64(p.Hist[2]), "pairs-at-d2")
	}
}

func BenchmarkFigure2RetweetsPerTweet(b *testing.B) {
	benchSetup(b)
	var r stats.RetweetBuckets
	for i := 0; i < b.N; i++ {
		r = stats.RetweetsPerTweet(benchState.ds)
	}
	b.ReportMetric(float64(r.Counts[0]), "never-retweeted")
}

func BenchmarkFigure3RetweetsPerUser(b *testing.B) {
	benchSetup(b)
	var r stats.UserRetweetStats
	for i := 0; i < b.N; i++ {
		r = stats.RetweetsPerUser(benchState.ds)
	}
	b.ReportMetric(100*r.NeverShare, "never-share-%")
}

func BenchmarkFigure4TweetLifetime(b *testing.B) {
	benchSetup(b)
	var r stats.LifetimeStats
	for i := 0; i < b.N; i++ {
		r = stats.Lifetimes(benchState.ds)
	}
	b.ReportMetric(100*r.DeadWithin72h, "dead-72h-%")
}

func BenchmarkTable2SimilarityByDistance(b *testing.B) {
	benchSetup(b)
	hc := stats.HomophilyConfig{SampleSize: 40, MinRetweets: 3, MaxDistance: 6, Seed: benchSeed}
	var rows []stats.DistanceRow
	for i := 0; i < b.N; i++ {
		rows = stats.SimilarityByDistance(benchState.ds, benchState.store, hc)
	}
	if len(rows) > 1 {
		b.ReportMetric(rows[0].AvgSim, "avg-sim-d1")
		b.ReportMetric(rows[1].AvgSim, "avg-sim-d2")
	}
}

func BenchmarkTable3TopNDistance(b *testing.B) {
	benchSetup(b)
	hc := stats.HomophilyConfig{SampleSize: 40, MinRetweets: 3, MaxDistance: 6, Seed: benchSeed}
	var rows []stats.TopRankRow
	for i := 0; i < b.N; i++ {
		rows = stats.TopNDistance(benchState.ds, benchState.store, 5, hc)
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].AvgDistance, "rank1-avg-dist")
	}
}

// ---------------------------------------------------------------------------
// SimGraph structure (Table 4, Figure 5)

func BenchmarkTable4SimGraphCharacteristics(b *testing.B) {
	benchSetup(b)
	cfg := simgraph.DefaultConfig()
	var ch simgraph.Characteristics
	for i := 0; i < b.N; i++ {
		g := simgraph.Build(benchState.ds.Graph, benchState.store, cfg)
		ch = simgraph.Measure(g, nil)
	}
	b.ReportMetric(float64(ch.Edges), "edges")
	b.ReportMetric(ch.MeanOutDegree, "mean-out-deg")
}

func BenchmarkFigure5SimGraphPaths(b *testing.B) {
	benchSetup(b)
	g := simgraph.Build(benchState.ds.Graph, benchState.store, simgraph.DefaultConfig())
	un := simgraph.ToUnweighted(g)
	var srcs []ids.UserID
	for u := 0; u < un.NumNodes() && len(srcs) < 16; u++ {
		if un.OutDegree(ids.UserID(u)) > 0 {
			srcs = append(srcs, ids.UserID(u))
		}
	}
	b.ResetTimer()
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = un.AveragePathLength(srcs)
	}
	b.ReportMetric(avg, "avg-path")
}

// ---------------------------------------------------------------------------
// Evaluation (Figures 7–15, Table 5)

// figureBench times the metric computation for one method's cached run
// and reports the headline series value at k=20 (index 0) and the last k.
func figureBench(b *testing.B, series func(*eval.Metrics) []float64, unit string) {
	benchSetup(b)
	var m *eval.Metrics
	for i := 0; i < b.N; i++ {
		m = benchState.replay.Compute(benchState.runs["SimGraph"])
	}
	s := series(m)
	if len(s) > 0 {
		b.ReportMetric(s[0], unit+"-k20")
		b.ReportMetric(s[len(s)-1], unit+"-kmax")
	}
}

func BenchmarkFigure7RecallCapacity(b *testing.B) {
	figureBench(b, func(m *eval.Metrics) []float64 { return m.RecsPerDayUser }, "recs")
}

func BenchmarkFigure8HitsAll(b *testing.B) {
	figureBench(b, func(m *eval.Metrics) []float64 { return intsToF(m.Hits) }, "hits")
}

func BenchmarkFigure9HitsSmall(b *testing.B) {
	figureBench(b, func(m *eval.Metrics) []float64 { return intsToF(m.HitsForClass(dataset.LowActivity)) }, "hits")
}

func BenchmarkFigure10HitsMedium(b *testing.B) {
	figureBench(b, func(m *eval.Metrics) []float64 { return intsToF(m.HitsForClass(dataset.ModerateActivity)) }, "hits")
}

func BenchmarkFigure11HitsBig(b *testing.B) {
	figureBench(b, func(m *eval.Metrics) []float64 { return intsToF(m.HitsForClass(dataset.IntensiveActivity)) }, "hits")
}

func BenchmarkFigure12HitPopularity(b *testing.B) {
	figureBench(b, func(m *eval.Metrics) []float64 { return m.AvgHitPopularity }, "pop")
}

func BenchmarkFigure13CommonHits(b *testing.B) {
	benchSetup(b)
	var ratios []float64
	for i := 0; i < b.N; i++ {
		ratios = eval.CommonHitRatio(benchState.metrics["SimGraph"], benchState.metrics["Bayes"])
	}
	if len(ratios) > 0 {
		b.ReportMetric(ratios[len(ratios)-1], "sigma-bayes-kmax")
	}
}

func BenchmarkFigure14F1(b *testing.B) {
	figureBench(b, func(m *eval.Metrics) []float64 { return m.F1 }, "f1")
}

func BenchmarkTable5ProcessingTime(b *testing.B) {
	benchSetup(b)
	// The table itself derives from cached timings; the benchmark times
	// the dominant online cost — SimGraph's per-message observe path —
	// on a fresh recommender.
	r := benchState.replay
	rec := simgraph.NewRecommender(simgraph.DefaultRecommenderConfig())
	if err := rec.Init(r.Ctx); err != nil {
		b.Fatal(err)
	}
	test := r.Split.Test
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Observe(test[i%len(test)])
	}
	b.ReportMetric(benchState.replay.Timings(benchState.runs["SimGraph"], benchUsers).PerMessage, "replay-ms/msg")
}

func BenchmarkFigure15AdvanceTime(b *testing.B) {
	figureBench(b, func(m *eval.Metrics) []float64 { return m.AvgAdvance }, "advance-s")
}

// BenchmarkFigure16UpdateStrategies times Engine.RefreshGraphStats once per
// maintenance strategy and reports its cost split as means per refresh.
// Every iteration gets a fresh engine fed the same refreshObserve-action
// stream, off the clock: a refresh consumes the store's dirty set and
// swaps the recommender, so a reused engine would hand later iterations a
// workload the first refresh already absorbed. The untimed set-up
// dominates the wall time, so pass a fixed count (-benchtime=3x).
func BenchmarkFigure16UpdateStrategies(b *testing.B) {
	benchSetup(b)
	ds := benchState.ds
	stream := ds.Actions[len(ds.Actions)-refreshObserve:]
	for _, strategy := range simgraph.AllUpdateStrategies {
		b.Run(strategy.String(), func(b *testing.B) {
			var build, stall, hold, dirty float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := NewEngine(ds, DefaultEngineOptions())
				if err != nil {
					b.Fatal(err)
				}
				for _, a := range stream {
					if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				st := eng.RefreshGraphStats(strategy)
				build += float64(st.BuildTime.Microseconds()) / 1e3
				stall += float64(st.WriteStall.Microseconds()) / 1e3
				hold += float64(st.LockHold.Microseconds()) / 1e3
				dirty += float64(st.DirtyUsers)
			}
			n := float64(b.N)
			b.ReportMetric(build/n, "build-ms")
			b.ReportMetric(stall/n, "write-stall-ms")
			b.ReportMetric(hold/n, "lock-hold-ms")
			b.ReportMetric(dirty/n, "dirty-users")
		})
	}
}

// refreshObserve is how many trailing dataset actions each refresh
// benchmark iteration streams into its engine before refreshing.
const refreshObserve = 2000

// Steady-state refresh, the shape of the serving node's background
// refresher: one engine at 3 000 users (0.9 train split) warmed with a
// 10 000-action stream prefix, then each iteration streams the next
// refreshBatch actions and runs an incremental refresh. Per refresh it
// reports the graph build, the single-threaded replay (the refresh's
// wall time minus build, write stall and lock hold), the dirty-set size
// and the actions replayed. The set-up generates its own dataset, so
// pass a small fixed count (-benchtime=10x).
func BenchmarkRefreshSteady(b *testing.B) {
	const (
		users        = 3000
		preload      = 10000
		refreshBatch = 200
	)
	ds, err := GenerateDataset(DatasetOptions{Users: users, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	train, test, err := SplitDataset(ds, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	if need := preload + b.N*refreshBatch; len(test) < need {
		b.Fatalf("test stream has %d actions, %d iterations need %d", len(test), b.N, need)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	eng, err := NewEngine(ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	observe := func(actions []Action) {
		for _, err := range eng.ObserveBatch(actions) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	observe(test[:preload])
	eng.RefreshGraphStats(UpdateIncremental) // absorb the preload's dirty set
	stream := test[preload:]
	b.ResetTimer()
	var build, replay, dirty, replayed float64
	for i := 0; i < b.N; i++ {
		observe(stream[i*refreshBatch : (i+1)*refreshBatch])
		start := time.Now()
		st := eng.RefreshGraphStats(UpdateIncremental)
		wall := time.Since(start)
		build += float64(st.BuildTime.Microseconds()) / 1e3
		replay += float64((wall - st.BuildTime - st.WriteStall - st.LockHold).Microseconds()) / 1e3
		dirty += float64(st.DirtyUsers)
		replayed += float64(st.Replayed)
	}
	n := float64(b.N)
	b.ReportMetric(build/n, "build-ms")
	b.ReportMetric(replay/n, "replay-ms")
	b.ReportMetric(dirty/n, "dirty-users")
	b.ReportMetric(replayed/n, "replayed")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

func BenchmarkAblationTauSweep(b *testing.B) {
	benchSetup(b)
	for _, tau := range []float64{0.003, 0.01, 0.03} {
		b.Run(tauName(tau), func(b *testing.B) {
			cfg := simgraph.DefaultConfig()
			cfg.Tau = tau
			var edges int
			for i := 0; i < b.N; i++ {
				g := simgraph.Build(benchState.ds.Graph, benchState.store, cfg)
				edges = g.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

func tauName(tau float64) string {
	switch tau {
	case 0.003:
		return "tau=0.003"
	case 0.01:
		return "tau=0.01"
	default:
		return "tau=0.03"
	}
}

func BenchmarkAblationHops1(b *testing.B) { benchHops(b, 1) }
func BenchmarkAblationHops2(b *testing.B) { benchHops(b, 2) }

func benchHops(b *testing.B, hops int) {
	benchSetup(b)
	cfg := simgraph.DefaultConfig()
	cfg.Hops = hops
	var edges int
	for i := 0; i < b.N; i++ {
		g := simgraph.Build(benchState.ds.Graph, benchState.store, cfg)
		edges = g.NumEdges()
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkAblationPostponedOff(b *testing.B) { benchPostponed(b, false) }
func BenchmarkAblationPostponedOn(b *testing.B)  { benchPostponed(b, true) }

func benchPostponed(b *testing.B, postpone bool) {
	benchSetup(b)
	cfg := simgraph.DefaultRecommenderConfig()
	cfg.Postpone = postpone
	rec := simgraph.NewRecommender(cfg)
	if err := rec.Init(benchState.replay.Ctx); err != nil {
		b.Fatal(err)
	}
	test := benchState.replay.Split.Test
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Observe(test[i%len(test)])
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks

func BenchmarkSimilarityPair(b *testing.B) {
	benchSetup(b)
	store := benchState.store
	// Two active users.
	var u, v ids.UserID
	found := 0
	for i := 0; i < store.NumUsers() && found < 2; i++ {
		if store.ProfileSize(ids.UserID(i)) > 5 {
			if found == 0 {
				u = ids.UserID(i)
			} else {
				v = ids.UserID(i)
			}
			found++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Sim(u, v)
	}
}

func BenchmarkSimGraphBuild(b *testing.B) {
	benchSetup(b)
	cfg := simgraph.DefaultConfig()
	for i := 0; i < b.N; i++ {
		simgraph.Build(benchState.ds.Graph, benchState.store, cfg)
	}
}

// BenchmarkSimGraphBuildPairwise is the reference per-pair construction
// path; the ratio to BenchmarkSimGraphBuild is the inverted-index
// kernel's speedup.
func BenchmarkSimGraphBuildPairwise(b *testing.B) {
	benchSetup(b)
	cfg := simgraph.DefaultConfig()
	cfg.Pairwise = true
	for i := 0; i < b.N; i++ {
		simgraph.Build(benchState.ds.Graph, benchState.store, cfg)
	}
}

func BenchmarkFollowGraphBFS(b *testing.B) {
	benchSetup(b)
	g := benchState.ds.Graph
	dist := make([]int32, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist = g.BFS(ids.UserID(i%g.NumNodes()), dist)
	}
	_ = dist
}

func BenchmarkGeneratorSmall(b *testing.B) {
	cfg := gen.DefaultConfig(400, 3)
	cfg.TweetsPerUser = 6
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func intsToF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

var _ = graph.Unreachable // document the substrate dependency
