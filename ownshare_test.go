package repro

import "testing"

// TestNoTweetBackToItsSharer pins the "already shared" filter across the
// train/stream cut: after a preload of the stream, no user's list — warm
// or cold start — holds a tweet that user shared, whether the share was
// streamed or came from training while the tweet was still fresh.
func TestNoTweetBackToItsSharer(t *testing.T) {
	ds, err := GenerateDataset(DatasetOptions{Users: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	preload := test[:10000]
	for i, err := range eng.ObserveBatch(preload) {
		if err != nil {
			t.Fatalf("action %d: %v", i, err)
		}
	}

	type share struct {
		u  UserID
		tw TweetID
	}
	shared := make(map[share]struct{}, len(train)+len(preload))
	for _, a := range train {
		shared[share{a.User, a.Tweet}] = struct{}{}
	}
	for _, a := range preload {
		shared[share{a.User, a.Tweet}] = struct{}{}
	}

	now := preload[len(preload)-1].Time
	own, slots := 0, 0
	for u := 0; u < ds.NumUsers(); u++ {
		recs, cold := eng.RecommendWithColdStart(UserID(u), 10, now)
		slots += len(recs)
		for _, r := range recs {
			if _, ok := shared[share{UserID(u), r.Tweet}]; ok {
				own++
				if own <= 5 {
					t.Errorf("user %d gets back tweet %d it shared (cold start %v)", u, r.Tweet, cold)
				}
			}
		}
	}
	if own > 0 {
		t.Fatalf("%d of %d recommended slots are the reader's own shares", own, slots)
	}
}
