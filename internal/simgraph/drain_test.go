package simgraph

import (
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// Tests for the serial postponed-batch drain: it must count its work in
// the rec/* instruments and stay race-free while readers drain under
// concurrent serving traffic (run with -race in CI).

func drainConfig(reg *metrics.Registry) RecommenderConfig {
	cfg := DefaultRecommenderConfig()
	cfg.Postpone = true
	cfg.Metrics = reg
	return cfg
}

// drainCounts reads the streaming-propagation instruments of reg.
type drainCounts struct {
	Propagations, Recomputations, Rounds, DrainedBatches, Drains uint64
	DrainWallNs                                                  int64
}

func readDrainCounts(reg *metrics.Registry) drainCounts {
	return drainCounts{
		Propagations:   reg.Counter("rec/propagations").Value(),
		Recomputations: reg.Counter("rec/recomputations").Value(),
		Rounds:         reg.Counter("rec/rounds").Value(),
		DrainedBatches: reg.Counter("rec/drain/batches").Value(),
		Drains:         reg.Counter("rec/drains").Value(),
		DrainWallNs:    reg.Histogram("rec/drain/wall_ns").Sum(),
	}
}

// TestDrainStatsCount: the rec/* instruments must reflect the drains that
// actually ran.
func TestDrainStatsCount(t *testing.T) {
	reg := metrics.NewRegistry()
	r, ds := soakReplay(t, drainConfig(reg), 800, 10)
	now := ds.Actions[len(ds.Actions)-1].Time
	r.Recommend(0, 10, now+300*ids.Hour) // flush whatever frames remain in horizon
	st := readDrainCounts(reg)
	if st.Propagations == 0 || st.DrainedBatches == 0 || st.Drains == 0 {
		t.Fatalf("postponed replay recorded no work: %+v", st)
	}
	if st.DrainedBatches < st.Drains {
		t.Errorf("drained %d batches over %d drains", st.DrainedBatches, st.Drains)
	}
	if st.Propagations != st.DrainedBatches {
		t.Errorf("postponed mode: propagations %d != drained batches %d", st.Propagations, st.DrainedBatches)
	}
	if st.Recomputations == 0 || st.Rounds == 0 {
		t.Errorf("no recomputations/rounds counted: %+v", st)
	}
	if st.DrainWallNs <= 0 {
		t.Error("drain wall time not measured")
	}

	// Immediate mode counts propagations but never drains.
	regi := metrics.NewRegistry()
	cfgi := DefaultRecommenderConfig()
	cfgi.Metrics = regi
	soakReplay(t, cfgi, 300, 10)
	sti := readDrainCounts(regi)
	if sti.Propagations == 0 {
		t.Fatal("immediate mode counted no propagations")
	}
	if sti.Drains != 0 || sti.DrainedBatches != 0 {
		t.Errorf("immediate mode recorded drains: %+v", sti)
	}
}

// TestConcurrentServingWhileFramesExpire is the drain race test: one
// writer streams retweets (expiring frames as the clock advances) while
// readers recommend — every drain a reader triggers propagates under the
// recommender lock the writer also takes. Run under -race.
func TestConcurrentServingWhileFramesExpire(t *testing.T) {
	ds, ctx := soakWorld(t, 1500, 10)
	reg := metrics.NewRegistry()
	cfg := drainConfig(reg)
	cfg.PostponeMin = 2 * ids.Minute // expire frames constantly
	cfg.PostponeMax = 30 * ids.Minute
	r := NewRecommender(cfg)
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	test := ds.Actions[len(ctx.Train):]

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: the retweet stream
		defer wg.Done()
		for _, a := range test {
			r.Observe(a)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // readers: serving traffic that also drains
			defer wg.Done()
			for i := 0; i < len(test); i += 16 {
				u := ctx.Tracked[(i+w)%len(ctx.Tracked)]
				r.Recommend(u, 10, test[i].Time)
			}
		}(w)
	}
	wg.Wait()

	now := test[len(test)-1].Time
	for _, u := range ctx.Tracked[:4] {
		for _, rec := range r.Recommend(u, 10, now) {
			if now-ds.Tweets[rec.Tweet].Time > ctx.MaxAge {
				t.Fatal("stale recommendation after concurrent replay")
			}
		}
	}
	if st := readDrainCounts(reg); st.Propagations == 0 {
		t.Fatalf("concurrent replay propagated nothing: %+v", st)
	}
}

// BenchmarkPostponedReplay times a postponed-mode replay whose short
// time frames expire constantly, so most of the work is the serial drain.
func BenchmarkPostponedReplay(b *testing.B) {
	const numTweets, perTweet = 2500, 12
	ds, ctx := soakWorld(b, numTweets, perTweet)
	test := ds.Actions[len(ctx.Train):]
	cfg := drainConfig(nil)
	cfg.PostponeMin = 2 * ids.Minute
	cfg.PostponeMax = 30 * ids.Minute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRecommender(cfg)
		if err := r.Init(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, a := range test {
			r.Observe(a)
		}
	}
}
