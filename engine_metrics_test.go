package repro

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/wgraph"
)

// TestEngineMetricsSnapshot checks the acceptance surface of the metrics
// layer: after driving the engine through its serving paths, the snapshot
// exposes latency histograms for Recommend/Observe/RefreshGraphStats and the
// streaming drain/build counters, with counts that match the traffic.
func TestEngineMetricsSnapshot(t *testing.T) {
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range test {
		if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
	now := test[len(test)-1].Time
	recommends := 0
	for u := 0; u < ds.NumUsers(); u++ {
		eng.Recommend(UserID(u), 5, now)
		recommends++
	}
	eng.RefreshGraphStats(UpdateWeights)

	snap := eng.Metrics()
	// Observe is a one-action ObserveBatch: one batch and one batch
	// latency sample per action.
	if got := snap.Histogram("engine/observe/batch_ns").Count; got != uint64(len(test)) {
		t.Errorf("observe batch latency count = %d, want %d", got, len(test))
	}
	if got := snap.Counter("engine/observe/batches"); got != uint64(len(test)) {
		t.Errorf("observe batches = %d, want %d", got, len(test))
	}
	if got := snap.Histogram("engine/recommend/latency_ns").Count; got != uint64(recommends) {
		t.Errorf("recommend latency count = %d, want %d", got, recommends)
	}
	if got := snap.Histogram("engine/refresh/build_ns").Count; got != 1 {
		t.Errorf("refresh build count = %d, want 1", got)
	}
	if got := snap.Histogram("engine/refresh/lock_hold_ns").Count; got != 1 {
		t.Errorf("refresh lock-hold count = %d, want 1", got)
	}
	if got := snap.Counter("engine/observe/actions"); got != uint64(len(test)) {
		t.Errorf("observe actions = %d, want %d", got, len(test))
	}
	if got := snap.Counter("engine/refresh/count"); got != 1 {
		t.Errorf("refresh count = %d, want 1", got)
	}
	if snap.Counter("rec/propagations") == 0 {
		t.Error("no propagations counted after streaming the test split")
	}
	if snap.Histogram("rec/frontier_width").Count == 0 {
		t.Error("no frontier widths observed")
	}
	// The SimBatch kernel ran during graph construction: one of the two
	// paths (scatter or cost-guard fallback) must have fired.
	if snap.Counter("similarity/simbatch/batch_calls")+snap.Counter("similarity/simbatch/pairwise_fallbacks") == 0 {
		t.Error("similarity kernel counters never bumped")
	}
	if got, want := snap.Gauge("engine/observed_log/len"), int64(len(eng.ObservedActions())); got != want {
		t.Errorf("observed_log/len gauge = %d, want %d", got, want)
	}

	// The text rendering groups by first path segment and formats _ns
	// series as durations.
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# engine", "# rec", "engine/recommend/latency_ns", "count="} {
		if !strings.Contains(out, want) {
			t.Errorf("text rendering missing %q:\n%s", want, out)
		}
	}
}

// soakDataset builds a hand-crafted stream: one tweet per simulated hour
// over `hours` hours, authors rotating over a small fully-connected user
// group. The engine can then be streamed an arbitrarily long suffix of
// that timeline with the freshness horizon covering only its tail.
func soakDataset(t *testing.T, hours int) *Dataset {
	t.Helper()
	const users = 6
	gb := graph.NewBuilder(users, users*(users-1))
	for u := 0; u < users; u++ {
		for v := 0; v < users; v++ {
			if u != v {
				gb.AddEdge(UserID(u), UserID(v))
			}
		}
	}
	ds := &Dataset{Graph: gb.Build()}
	for i := 0; i < hours; i++ {
		ds.Tweets = append(ds.Tweets, Tweet{Author: UserID(i % users), Time: Timestamp(i) * Hour})
	}
	// Training log: everyone shares the first few tweets so the profiles
	// overlap and the similarity graph is non-trivial.
	for i := 0; i < users; i++ {
		for u := 0; u < users; u++ {
			if UserID(u) == ds.Tweets[i].Author {
				continue
			}
			ds.Actions = append(ds.Actions, Action{User: UserID(u), Tweet: TweetID(i), Time: Timestamp(i)*Hour + Timestamp(u) + 1})
		}
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// streamSoak observes the first n hourly actions and refreshes, returning
// the refresh stats and the post-refresh observed-log length.
func streamSoak(t *testing.T, ds *Dataset, n int) (RefreshStats, int, *Engine) {
	t.Helper()
	opts := DefaultEngineOptions()
	opts.Train = ds.Actions
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		u := UserID((i + 1) % 6) // never the author
		if err := eng.Observe(u, TweetID(i), Timestamp(i)*Hour+Minute); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.RefreshGraphStats(UpdateWeights)
	return st, len(eng.ObservedActions()), eng
}

// TestRefreshReplayBounded is the headline-bugfix soak test: the refresh
// replay (the work done under the exclusive lock, and hence LockHold)
// must be bounded by the freshness window, not the total stream length.
// Streaming 10x more history must leave the replayed-action count and the
// compacted observed log exactly unchanged — previously the swap replayed
// the entire unbounded log and LockHold grew with every streamed action.
func TestRefreshReplayBounded(t *testing.T) {
	const short, long = 200, 2000
	ds := soakDataset(t, long)

	st1, kept1, _ := streamSoak(t, ds, short)
	st10, kept10, eng := streamSoak(t, ds, long)

	if st1.Replayed == 0 {
		t.Fatal("nothing replayed: the live window missed the stream tail")
	}
	if st10.Replayed != st1.Replayed {
		t.Errorf("replay scaled with stream length: %d at 1x vs %d at 10x", st1.Replayed, st10.Replayed)
	}
	if kept10 != kept1 {
		t.Errorf("compacted log scaled with stream length: %d at 1x vs %d at 10x", kept1, kept10)
	}
	if want := short - st1.Replayed; st1.Compacted != want {
		t.Errorf("1x compacted = %d, want %d", st1.Compacted, want)
	}
	if want := long - st10.Replayed; st10.Compacted != want {
		t.Errorf("10x compacted = %d, want %d", st10.Compacted, want)
	}

	// The metrics series mirror the stats struct.
	snap := eng.Metrics()
	if got := snap.Counter("engine/refresh/replayed_actions"); got != uint64(st10.Replayed) {
		t.Errorf("replayed_actions counter = %d, want %d", got, st10.Replayed)
	}
	if got := snap.Counter("engine/refresh/compacted_actions"); got != uint64(st10.Compacted) {
		t.Errorf("compacted_actions counter = %d, want %d", got, st10.Compacted)
	}
	if got := snap.Gauge("engine/observed_log/len"); got != int64(kept10) {
		t.Errorf("observed_log/len gauge = %d, want %d", got, kept10)
	}

	// An immediate second refresh has nothing left to compact and replays
	// the same live suffix.
	st := eng.RefreshGraphStats(UpdateWeights)
	if st.Compacted != 0 {
		t.Errorf("second refresh compacted %d actions from an already-compact log", st.Compacted)
	}
	if st.Replayed != st10.Replayed {
		t.Errorf("second refresh replayed %d, want %d", st.Replayed, st10.Replayed)
	}
}

// TestRefreshKeepsServingAfterCompaction guards the correctness side of
// the replay bound: recommendations for the live window survive a refresh
// that compacts away most of the stream.
func TestRefreshKeepsServingAfterCompaction(t *testing.T) {
	const n = 500
	ds := soakDataset(t, n)
	_, _, eng := streamSoak(t, ds, n)
	now := Timestamp(n-1)*Hour + Minute
	served := 0
	for u := 0; u < 6; u++ {
		served += len(eng.Recommend(UserID(u), 10, now))
	}
	if served == 0 {
		t.Fatal("no recommendations served after compacting refresh")
	}
	// Nothing stale may surface.
	for u := 0; u < 6; u++ {
		for _, r := range eng.Recommend(UserID(u), 10, now) {
			if now-ds.Tweets[r.Tweet].Time > DefaultEngineOptions().MaxAge {
				t.Fatalf("stale tweet %d served after refresh", r.Tweet)
			}
		}
	}
}

// maxAgeEngine returns an engine over an hourly soakDataset trained on its
// first six tweets, with the given freshness horizon.
func maxAgeEngine(t *testing.T, maxAge Timestamp) *Engine {
	t.Helper()
	ds := soakDataset(t, 300)
	opts := DefaultEngineOptions()
	opts.Train = ds.Actions
	opts.MaxAge = maxAge
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineMaxAgeAboveDefaultServes: with MaxAge 168 h, a tweet shared
// when 100 h old (past the paper's 72 h, inside the option) gets
// propagation state and is served to the sharer's neighbours.
func TestEngineMaxAgeAboveDefaultServes(t *testing.T) {
	eng := maxAgeEngine(t, 168*Hour)
	const tweet = TweetID(100) // published at 100 h by user 4
	now := 200 * Hour
	if err := eng.Observe(0, tweet, now); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Gauge("rec/states"); got != 1 {
		t.Fatalf("rec/states = %d after a share at age 100 h, want 1", got)
	}
	served := 0
	for u := UserID(1); u < 6; u++ {
		recs, cold := eng.RecommendWithColdStart(u, 10, now)
		for _, r := range recs {
			if r.Tweet == tweet && !cold {
				served++
			}
		}
	}
	if served == 0 {
		t.Fatal("tweet aged 100 h served to nobody under MaxAge 168 h")
	}
}

// TestEngineMaxAgeBelowDefaultEvicts: with MaxAge 24 h, a tweet's state
// is evicted once the stream clock passes 24 h after its publication.
func TestEngineMaxAgeBelowDefaultEvicts(t *testing.T) {
	eng := maxAgeEngine(t, 24*Hour)
	for _, tw := range []TweetID{100, 110} {
		if err := eng.Observe(0, tw, Timestamp(tw)*Hour+Minute); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Metrics().Gauge("rec/states"); got != 2 {
		t.Fatalf("rec/states = %d after shares at ages 10 h and 0 h, want 2", got)
	}
	// The clock reaches 126 h: tweet 100 is 26 h old, tweet 110 16 h.
	if err := eng.Observe(0, 126, 126*Hour+Minute); err != nil {
		t.Fatal(err)
	}
	snap := eng.Metrics()
	if got := snap.Gauge("rec/states"); got != 2 {
		t.Errorf("rec/states = %d with the clock 26 h past tweet 100, want 2 (100 evicted, 126 added)", got)
	}
	if got := snap.Counter("rec/evictions"); got != 1 {
		t.Errorf("rec/evictions = %d, want 1", got)
	}
}

// TestRefreshStatsIncremental pins the incremental-refresh observability
// surface: the stats report the drained dirty set, the write-stall
// duration (total RLock hold), and the Diff of the installed graph; the
// engine/refresh/* metrics mirror the struct; and an immediately
// repeated incremental refresh is a no-op (the dirty set was consumed).
func TestRefreshStatsIncremental(t *testing.T) {
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range test {
		if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}

	st := eng.RefreshGraphStats(UpdateIncremental)
	if st.Strategy != UpdateIncremental {
		t.Errorf("Strategy = %v, want %v", st.Strategy, UpdateIncremental)
	}
	if st.DirtyUsers == 0 {
		t.Fatal("streaming the test split marked no dirty users")
	}
	if st.WriteStall <= 0 || st.BuildTime <= 0 {
		t.Errorf("WriteStall %v / BuildTime %v: both phases must be timed", st.WriteStall, st.BuildTime)
	}

	snap := eng.Metrics()
	if got := snap.Histogram("engine/refresh/write_stall_ns").Count; got != 1 {
		t.Errorf("write_stall count = %d, want 1", got)
	}
	if got := snap.Counter("engine/refresh/dirty_users"); got != uint64(st.DirtyUsers) {
		t.Errorf("dirty_users counter = %d, want %d", got, st.DirtyUsers)
	}
	if got := snap.Counter("engine/refresh/edges_added"); got != uint64(st.EdgesAdded) {
		t.Errorf("edges_added counter = %d, want %d", got, st.EdgesAdded)
	}
	if got := snap.Counter("engine/refresh/edges_removed"); got != uint64(st.EdgesRemoved) {
		t.Errorf("edges_removed counter = %d, want %d", got, st.EdgesRemoved)
	}
	if got := snap.Counter("engine/refresh/edges_reweighted"); got != uint64(st.EdgesReweighted) {
		t.Errorf("edges_reweighted counter = %d, want %d", got, st.EdgesReweighted)
	}

	// The refresh consumed the dirty set: repeating it without new
	// observes re-scores nobody and leaves the graph untouched.
	st2 := eng.RefreshGraphStats(UpdateIncremental)
	if st2.DirtyUsers != 0 {
		t.Errorf("second refresh re-scored %d users from a drained set", st2.DirtyUsers)
	}
	if st2.EdgesAdded != 0 || st2.EdgesRemoved != 0 || st2.EdgesReweighted != 0 {
		t.Errorf("second refresh changed the graph: %+v", st2)
	}
	if st2.Edges != st.Edges {
		t.Errorf("second refresh edge count %d, want %d", st2.Edges, st.Edges)
	}

	// One new observe re-dirties only that action's co-retweeter set.
	a := test[0]
	if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
		t.Fatal(err)
	}
	st3 := eng.RefreshGraphStats(UpdateIncremental)
	if st3.DirtyUsers == 0 || st3.DirtyUsers >= st.DirtyUsers {
		t.Errorf("third refresh dirty users = %d, want small nonzero (first pass had %d)", st3.DirtyUsers, st.DirtyUsers)
	}
}

// TestBackgroundRefresherSkipsClean pins the background refresher's
// empty-dirty-set fast path: with nothing observed since the last
// refresh, incremental ticks are counted as skipped and never swap the
// recommender.
func TestBackgroundRefresherSkipsClean(t *testing.T) {
	ds := testDataset(t)
	opts := DefaultEngineOptions()
	opts.RefreshEvery = time.Millisecond
	opts.RefreshStrategy = UpdateIncremental
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Metrics().Counter("engine/refresh/skipped_clean") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background refresher never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	if got := eng.Metrics().Counter("engine/refresh/count"); got != 0 {
		t.Errorf("clean engine ran %d refreshes, want 0", got)
	}
}

// TestPropagateScoresDropsInvalidSeeds pins the Engine-boundary seed
// filter: out-of-range seeds are dropped (and counted) before the
// propagation runs, so they can neither panic the kernel nor inflate the
// popularity fed to the dynamic threshold.
func TestPropagateScoresDropsInvalidSeeds(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(ds, DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	var seed UserID
	found := false
	for u := 0; u < ds.NumUsers(); u++ {
		if eng.rec.Graph().InDegree(UserID(u)) > 0 {
			seed, found = UserID(u), true
			break
		}
	}
	if !found {
		t.Skip("no influential user in tiny graph")
	}
	clean := eng.PropagateScores([]UserID{seed})
	mixed := eng.PropagateScores([]UserID{UserID(ds.NumUsers()), seed, UserID(1 << 30)})
	if len(mixed) != len(clean) {
		t.Fatalf("invalid seeds changed the propagation: %d vs %d users reached", len(mixed), len(clean))
	}
	for u, p := range clean {
		if mixed[u] != p {
			t.Fatalf("score for user %d differs with invalid seeds present: %v vs %v", u, mixed[u], p)
		}
	}
	if got := eng.Metrics().Counter("engine/propagate/invalid_seeds"); got != 2 {
		t.Errorf("invalid_seeds counter = %d, want 2", got)
	}
	if out := eng.PropagateScores([]UserID{UserID(1 << 30)}); len(out) != 0 {
		t.Errorf("all-invalid seed set reached %d users", len(out))
	}
}

// TestSamplePathSources pins the deterministic stride sample: sources
// span the whole eligible ID range instead of clustering at low IDs.
func TestSamplePathSources(t *testing.T) {
	b := wgraph.NewBuilder(100, 50)
	for u := 0; u < 100; u += 2 {
		b.AddEdge(UserID(u), UserID(u+1), 1)
	}
	g := b.Build()

	srcs := samplePathSources(g, 10)
	if len(srcs) != 10 {
		t.Fatalf("got %d sources, want 10", len(srcs))
	}
	for i, u := range srcs {
		if g.OutDegree(u) == 0 {
			t.Errorf("source %d has no out-edges", u)
		}
		// eligible = the 50 even nodes; stride sampling picks every 5th.
		if want := UserID(10 * i); u != want {
			t.Errorf("srcs[%d] = %d, want %d", i, u, want)
		}
	}
	if last := srcs[len(srcs)-1]; int(last) < g.NumNodes()/2 {
		t.Errorf("sample never reaches the upper ID range: last source %d", last)
	}
	if all := samplePathSources(g, 1000); len(all) != 50 {
		t.Errorf("oversized request returned %d sources, want all 50 eligible", len(all))
	}
	if samplePathSources(g, 0) != nil {
		t.Error("pathSamples=0 should return nil")
	}
}
