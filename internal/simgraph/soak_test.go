package simgraph

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/recsys"
)

// soakWorld builds a deterministic long-horizon stream: numTweets tweets
// published one hour apart on a 64-user ring, each retweeted perTweet
// times within minutes of publication. The stream spans many freshness
// horizons, so per-tweet state must be created and evicted thousands of
// times.
func soakWorld(t testing.TB, numTweets, perTweet int) (*dataset.Dataset, *recsys.Context) {
	t.Helper()
	const numUsers = 64
	gb := graph.NewBuilder(numUsers, numUsers*3)
	for u := 0; u < numUsers; u++ {
		for d := 1; d <= 3; d++ {
			gb.AddEdge(ids.UserID(u), ids.UserID((u+d)%numUsers))
		}
	}
	tweets := make([]dataset.Tweet, numTweets)
	actions := make([]dataset.Action, 0, numTweets*perTweet)
	for i := 0; i < numTweets; i++ {
		pub := ids.Timestamp(i) * ids.Hour
		tweets[i] = dataset.Tweet{Author: ids.UserID(i % numUsers), Time: pub}
		for j := 0; j < perTweet; j++ {
			actions = append(actions, dataset.Action{
				User:  ids.UserID((i + (j+1)*7) % numUsers),
				Tweet: ids.TweetID(i),
				Time:  pub + ids.Timestamp(j+1)*ids.Minute,
			})
		}
	}
	ds := &dataset.Dataset{Graph: gb.Build(), Tweets: tweets, Actions: actions}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	var tracked []ids.UserID
	for u := 0; u < 16; u++ {
		tracked = append(tracked, ids.UserID(u))
	}
	train := actions[:100*perTweet]
	return ds, recsys.NewContext(ds, train, tracked, 1)
}

// soakReplay streams every post-train action and returns the recommender
// for state inspection.
func soakReplay(t testing.TB, cfg RecommenderConfig, numTweets, perTweet int) (*Recommender, *dataset.Dataset) {
	t.Helper()
	ds, ctx := soakWorld(t, numTweets, perTweet)
	r := NewRecommender(cfg)
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for _, a := range ds.Actions[len(ctx.Train):] {
		r.Observe(a)
	}
	return r, ds
}

// assertBounded checks all per-tweet state against the freshness horizon:
// after ~50k actions spanning dozens of MaxAge windows, live state must
// cover only the tweets still inside the horizon.
func assertBounded(t *testing.T, r *Recommender, ds *dataset.Dataset, now ids.Timestamp) {
	t.Helper()
	// Tweets published within MaxAge of now, plus slack for the eviction
	// being driven lazily by observation times.
	horizon := int(r.maxAge/ids.Hour) + 8
	liveStates, liveCounts := 0, 0
	for tw, st := range r.states {
		if st != nil {
			liveStates++
		}
		if r.counts[tw] != 0 {
			liveCounts++
		}
	}
	if liveStates != r.live {
		t.Errorf("live = %d, but %d states are held", r.live, liveStates)
	}
	if n := liveStates; n > horizon {
		t.Errorf("states holds %d tweets, want <= %d (horizon)", n, horizon)
	}
	if n := liveCounts; n > horizon {
		t.Errorf("counts holds %d tweets, want <= %d — counts must be evicted with states", n, horizon)
	}
	if live := len(r.evictQueue) - r.evictHead; live > horizon {
		t.Errorf("evictQueue live region %d, want <= %d", live, horizon)
	}
	// Compaction must keep the dead prefix bounded too.
	if len(r.evictQueue) > 2*4096+horizon {
		t.Errorf("evictQueue length %d never compacted", len(r.evictQueue))
	}
	for tw, st := range r.states {
		if st != nil && now-ds.Tweets[tw].Time > r.maxAge {
			t.Fatalf("zombie state for tweet %d (age %d h)", tw, (now-ds.Tweets[tw].Time)/ids.Hour)
		}
	}
	for tw, c := range r.counts {
		if c != 0 && now-ds.Tweets[tw].Time > r.maxAge {
			t.Fatalf("zombie count for tweet %d", tw)
		}
	}
	if r.sched != nil && r.sched.Pending() > horizon {
		t.Errorf("scheduler still holds %d pending tweets", r.sched.Pending())
	}
}

func TestSoakStateBoundedImmediate(t *testing.T) {
	const numTweets, perTweet = 5000, 10 // ~50k streamed actions
	r, ds := soakReplay(t, DefaultRecommenderConfig(), numTweets, perTweet)
	now := ds.Actions[len(ds.Actions)-1].Time
	assertBounded(t, r, ds, now)
}

func TestSoakStateBoundedPostponed(t *testing.T) {
	const numTweets, perTweet = 5000, 10
	cfg := DefaultRecommenderConfig()
	cfg.Postpone = true
	r, ds := soakReplay(t, cfg, numTweets, perTweet)
	now := ds.Actions[len(ds.Actions)-1].Time
	assertBounded(t, r, ds, now)
}

// A retweet arriving long after the tweet's state was evicted used to
// recreate the state in addSeeds and append the old tweet to the back of
// evictQueue, breaking the publication-ordered prefix scan — the zombie
// then survived every later eviction. Stale observations must be dropped.
func TestLateRetweetDoesNotResurrectState(t *testing.T) {
	ds, ctx := soakWorld(t, 400, 10)
	r := NewRecommender(DefaultRecommenderConfig())
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for _, a := range ds.Actions[len(ctx.Train):] {
		r.Observe(a)
	}
	now := ds.Actions[len(ds.Actions)-1].Time
	const old = ids.TweetID(0) // published ~400h ago, far past MaxAge
	if now-ds.Tweets[old].Time <= ctx.MaxAge {
		t.Fatal("test setup: tweet 0 still fresh")
	}
	r.Observe(dataset.Action{User: 5, Tweet: old, Time: now})
	if r.states[old] != nil {
		t.Fatal("stale retweet resurrected per-tweet state")
	}
	if r.counts[old] != 0 {
		t.Fatal("stale retweet recreated its count")
	}
	if n := len(r.evictQueue); n > 0 && r.evictQueue[n-1] == old {
		t.Fatal("stale tweet appended to the back of evictQueue")
	}
	// The share is still recorded: tweet 0 must never be recommended back
	// to user 5 even if it somehow re-entered a pool.
	for _, rec := range r.Recommend(5, 50, now) {
		if rec.Tweet == old {
			t.Fatal("stale shared tweet recommended back")
		}
	}
}

// With postponement on, a batch whose tweet ages out before the frame
// expires must be dropped by eviction, not propagated into fresh state.
func TestSchedulerBatchEvictedWithTweet(t *testing.T) {
	ds, ctx := soakWorld(t, 400, 10)
	cfg := DefaultRecommenderConfig()
	cfg.Postpone = true
	cfg.PostponeMin = 100 * ids.Hour // frames never expire on their own
	cfg.PostponeMax = 200 * ids.Hour
	r := NewRecommender(cfg)
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	first := ds.Actions[len(ctx.Train)]
	r.Observe(first) // batched, not yet propagated
	if r.sched.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", r.sched.Pending())
	}
	// Long after MaxAge, fresh activity triggers eviction; the pending
	// batch for the expired tweet must vanish with its state.
	late := ds.Actions[len(ds.Actions)-1]
	r.Observe(late)
	if r.states[first.Tweet] != nil {
		t.Fatal("expired batched tweet still has state")
	}
	if r.counts[first.Tweet] != 0 {
		t.Fatal("expired batched tweet still has a count")
	}
	// Draining at an even later time must not resurrect it either.
	r.Recommend(0, 10, late.Time+300*ids.Hour)
	if r.states[first.Tweet] != nil {
		t.Fatal("drain resurrected expired tweet state")
	}
}
