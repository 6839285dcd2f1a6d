package simgraph

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/propagation"
	"repro/internal/recsys"
)

func recommenderWorld(t *testing.T) (*dataset.Dataset, *recsys.Context) {
	t.Helper()
	cfg := gen.DefaultConfig(400, 23)
	cfg.TweetsPerUser = 8
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := ds.SplitByFraction(0.9)
	if err != nil {
		t.Fatal(err)
	}
	var tracked []ids.UserID
	counts := dataset.UserRetweetCounts(ds.NumUsers(), split.Train)
	for u, c := range counts {
		if c > 2 && len(tracked) < 60 {
			tracked = append(tracked, ids.UserID(u))
		}
	}
	return ds, recsys.NewContext(ds, split.Train, tracked, 1)
}

func replayInto(t *testing.T, r *Recommender, ds *dataset.Dataset, ctx *recsys.Context) (int, ids.Timestamp) {
	t.Helper()
	test := ds.Actions[len(ctx.Train):]
	for _, a := range test {
		r.Observe(a)
	}
	now := test[len(test)-1].Time
	produced := 0
	for _, u := range ctx.Tracked {
		recs := r.Recommend(u, 10, now)
		produced += len(recs)
		for i := 1; i < len(recs); i++ {
			if recs[i].Score > recs[i-1].Score {
				t.Fatal("recommendations unsorted")
			}
		}
		for _, rec := range recs {
			if now-ds.Tweets[rec.Tweet].Time > ctx.MaxAge {
				t.Fatal("stale recommendation")
			}
		}
	}
	return produced, now
}

// TestBudgetHitsCounted: rec/budget_hits counts the propagations AddSeeds
// cut short on its recomputation budget — none at the default config, some
// once the threshold is 0 and the budget is one round of 4096.
func TestBudgetHitsCounted(t *testing.T) {
	ds, ctx := recommenderWorld(t)
	replay := func(prop propagation.Config) (hits, props uint64) {
		reg := metrics.NewRegistry()
		cfg := DefaultRecommenderConfig()
		cfg.Metrics = reg
		cfg.Prop = prop
		r := NewRecommender(cfg)
		if err := r.Init(ctx); err != nil {
			t.Fatal(err)
		}
		replayInto(t, r, ds, ctx)
		return reg.Counter("rec/budget_hits").Value(), reg.Counter("rec/propagations").Value()
	}
	if hits, props := replay(DefaultRecommenderConfig().Prop); hits != 0 || props == 0 {
		t.Fatalf("default config: %d budget hits over %d propagations", hits, props)
	}
	hits, props := replay(propagation.Config{Threshold: propagation.StaticThreshold(0), MaxIterations: 1})
	if hits == 0 || hits > props {
		t.Fatalf("threshold 0, budget 4096: %d budget hits over %d propagations", hits, props)
	}
}

func TestRecommenderEndToEnd(t *testing.T) {
	ds, ctx := recommenderWorld(t)
	r := NewRecommender(DefaultRecommenderConfig())
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if r.Graph() == nil || r.Graph().NumEdges() == 0 {
		t.Fatal("similarity graph empty")
	}
	produced, _ := replayInto(t, r, ds, ctx)
	if produced == 0 {
		t.Fatal("no recommendations produced")
	}
	if r.Name() != "SimGraph" {
		t.Error("name")
	}
}

func TestRecommenderPostponedProducesRecs(t *testing.T) {
	ds, ctx := recommenderWorld(t)
	cfg := DefaultRecommenderConfig()
	cfg.Postpone = true
	r := NewRecommender(cfg)
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	produced, _ := replayInto(t, r, ds, ctx)
	if produced == 0 {
		t.Fatal("postponed mode produced nothing")
	}
}

func TestRecommenderStateEviction(t *testing.T) {
	ds, ctx := recommenderWorld(t)
	r := NewRecommender(DefaultRecommenderConfig())
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	test := ds.Actions[len(ctx.Train):]
	for _, a := range test {
		r.Observe(a)
	}
	// Every retained state must be within the freshness horizon of the
	// last observed action.
	now := test[len(test)-1].Time
	for tw, st := range r.states {
		if st != nil && now-ds.Tweets[tw].Time > ctx.MaxAge+ids.Day {
			t.Fatalf("stale state for tweet %d (age %v)", tw, now-ds.Tweets[tw].Time)
		}
	}
}

func TestInitWithGraphSharesNoState(t *testing.T) {
	ds, ctx := recommenderWorld(t)
	a := NewRecommender(DefaultRecommenderConfig())
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	b := NewRecommender(DefaultRecommenderConfig())
	b.InitWithGraph(ctx, a.Graph())
	if b.Graph() != a.Graph() {
		t.Fatal("InitWithGraph must install the given graph")
	}
	// Observing through b must not touch a's candidates.
	test := ds.Actions[len(ctx.Train):]
	for _, act := range test[:100] {
		b.Observe(act)
	}
	now := test[99].Time
	for _, u := range ctx.Tracked {
		if len(a.Recommend(u, 5, now)) != 0 {
			t.Fatal("recommender A saw recommender B's observations")
		}
	}
}

// TestTrackedOutOfRange: a tracked id beyond the dataset's users (the
// Engine passes EngineOptions.TrackUsers through unchecked) is ignored,
// not a panic, and reads for it return nothing.
func TestTrackedOutOfRange(t *testing.T) {
	ds, ctx := recommenderWorld(t)
	bogus := ids.UserID(ds.NumUsers() + 5)
	ctx.Tracked = append(ctx.Tracked, bogus)
	r := NewRecommender(DefaultRecommenderConfig())
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	produced, now := replayInto(t, r, ds, ctx)
	if produced == 0 {
		t.Fatal("no recommendations produced")
	}
	if recs := r.Recommend(bogus, 10, now); recs != nil {
		t.Fatalf("out-of-range user got %v", recs)
	}
}
