package repro

import (
	"testing"

	"repro/internal/recsys"
)

// clusterFixture builds an engine with community embeddings enabled,
// streams the test split, and returns it with a serving timestamp.
func clusterFixture(t *testing.T, opts EngineOptions) (*Engine, []Action, Timestamp) {
	t.Helper()
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	opts.Train = train
	opts.MaxAge = 1 << 40 // nothing expires: deterministic pools
	e, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	now := Timestamp(1)
	for _, a := range test {
		if err := e.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
		if a.Time >= now {
			now = a.Time + 1
		}
	}
	return e, test, now
}

// TestClusterDetectionLifecycle pins that embeddings exist after
// construction, cover the user range, and are re-detected by refreshes.
func TestClusterDetectionLifecycle(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.ClusterPrune = true
	e, _, _ := clusterFixture(t, opts)
	emb := e.clusters.Load()
	if emb == nil {
		t.Fatal("no embeddings after NewEngine with ClusterPrune")
	}
	if emb.NumUsers() != e.Dataset().NumUsers() {
		t.Fatalf("embeddings cover %d users, want %d", emb.NumUsers(), e.Dataset().NumUsers())
	}
	if emb.NumClusters() == 0 {
		t.Fatal("no communities detected on a generated dataset")
	}
	before := e.Metrics().Counter("engine/community/detections")
	e.RefreshGraphStats(UpdateIncremental)
	if e.clusters.Load() == emb {
		t.Error("refresh did not re-detect embeddings")
	}
	if after := e.Metrics().Counter("engine/community/detections"); after != before+1 {
		t.Errorf("detections counter %d -> %d, want +1", before, after)
	}
}

// TestClusterPruneOffNoEmbeddings pins the knob gate: without
// ClusterPrune the engine never pays for detection.
func TestClusterPruneOffNoEmbeddings(t *testing.T) {
	e, _, _ := clusterFixture(t, DefaultEngineOptions())
	if e.clusters.Load() != nil {
		t.Fatal("embeddings detected despite ClusterPrune=false")
	}
	if n := e.Metrics().Counter("engine/community/detections"); n != 0 {
		t.Fatalf("detections counter %d, want 0", n)
	}
}

// TestClusterColdStart pins the overlap-weighted fallback against a
// reference aggregation computed through the public per-followee
// recommendations and the published embeddings, then pins that the
// serving path flags every cold user and ranks exactly that aggregate.
func TestClusterColdStart(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.ClusterPrune = true
	opts.ColdStartFallback = false // followee recs must be pool-only below
	e, _, now := clusterFixture(t, opts)
	emb := e.clusters.Load()

	const k = 10
	checked := 0
	weighted := false
	for _, u := range e.coldStartUsers() {
		followees := e.ds.Graph.Out(u)
		if len(followees) == 0 {
			continue
		}
		got := coldStartTopK(e, u, k, now)
		// Reference: the documented aggregation over public pieces.
		profile := e.store.Profile(u)
		sharedBy := make(map[TweetID]bool, len(profile))
		for _, tt := range profile {
			sharedBy[tt] = true
		}
		agg := make(map[TweetID]float64)
		for _, v := range followees {
			wv := 1 + emb.Overlap(u, v)
			if wv != 1 {
				weighted = true
			}
			for _, r := range e.Recommend(v, k, now) {
				if e.ds.Tweets[r.Tweet].Author == u || sharedBy[r.Tweet] {
					continue
				}
				agg[r.Tweet] += r.Score * wv
			}
		}
		top := recsys.NewTopK(k)
		inv := 1 / float64(len(followees))
		for tw, sum := range agg {
			top.Offer(tw, sum*inv)
		}
		sameRecs(t, u, got, top.Ranked())
		if len(got) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("vacuous: no cold user with followees produced recommendations")
	}
	if !weighted {
		t.Fatal("vacuous: no followee had nonzero cluster overlap with a cold user")
	}

	// The serving path: with the fallback on, every cold user is served
	// the ranked aggregate and flagged cold.
	e.opts.ColdStartFallback = true
	for _, u := range e.coldStartUsers() {
		got, cold := e.RecommendWithColdStart(u, k, now)
		if !cold {
			t.Fatalf("user %d: cold-start user served without the cold flag", u)
		}
		sameRecs(t, u, got, coldStartTopK(e, u, k, now))
	}
}

// TestClusterPruneServesRefresh smoke-checks the pruned refresh path:
// with embeddings armed, a from-scratch refresh must run the pre-filter
// (candidates counted) and still serve recommendations.
func TestClusterPruneServesRefresh(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.ClusterPrune = true
	opts.PruneMinOverlap = 0.01
	e, test, now := clusterFixture(t, opts)
	e.RefreshGraphStats(UpdateFromScratch)
	m := e.Metrics()
	if m.Counter("similarity/prune/candidates_in") == 0 {
		t.Fatal("pruned refresh never ran the community pre-filter")
	}
	served := 0
	for _, a := range test[:min(len(test), 200)] {
		if len(e.Recommend(a.User, 10, now)) > 0 {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no user served after pruned refresh")
	}
}

// coldStartTopK ranks u's untruncated cold-start aggregate, taken under
// the read lock, and keeps the k best, exactly as the engine's cold
// branch does.
func coldStartTopK(e *Engine, u UserID, k int, now Timestamp) []Recommendation {
	e.mu.RLock()
	defer e.mu.RUnlock()
	top := recsys.NewTopK(k)
	for _, r := range e.coldStartAggregate(u, k, now) {
		top.Offer(r.Tweet, r.Score)
	}
	return top.Ranked()
}

// sameRecs fails the test unless user u's got and want lists match
// tweet for tweet and bit for bit in score.
func sameRecs(t *testing.T, u UserID, got, want []Recommendation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("user %d: got %d recs, want %d", u, len(got), len(want))
	}
	for i := range got {
		if got[i].Tweet != want[i].Tweet || got[i].Score != want[i].Score {
			t.Fatalf("user %d rec %d: got (%d, %v), want (%d, %v)",
				u, i, got[i].Tweet, got[i].Score, want[i].Tweet, want[i].Score)
		}
	}
}
