package gen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ids"
)

// smallConfig returns a fast configuration for tests.
func smallConfig(seed uint64) Config {
	c := DefaultConfig(400, seed)
	c.TweetsPerUser = 6
	return c
}

// TestGenerateDeterministic: two same-seed runs save to the same bytes —
// graph, tweets and action log alike.
func TestGenerateDeterministic(t *testing.T) {
	a := saveBytes(t, smallConfig(42))
	b := saveBytes(t, smallConfig(42))
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs saved different datasets")
	}
}

// BenchmarkGenerate times one full dataset generation at the bench's
// scale (3 000 users, seed 1); simulateCascades dominates it.
func BenchmarkGenerate(b *testing.B) {
	c := DefaultConfig(3000, 1)
	for i := 0; i < b.N; i++ {
		if _, err := Generate(c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(smallConfig(1))
	b, _ := Generate(smallConfig(2))
	if reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatal("different seeds produced identical action logs")
	}
}

func TestGeneratedDatasetIsValid(t *testing.T) {
	ds, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.NumUsers = 5 },
		func(c *Config) { c.NumCommunities = 0 },
		func(c *Config) { c.MeanFollowees = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.BaseRetweetP = 1.5 },
		func(c *Config) { c.NeverRetweetP = 1 },
	}
	for i, mutate := range cases {
		c := smallConfig(1)
		mutate(&c)
		if _, err := Generate(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCalibrationShape(t *testing.T) {
	c := DefaultConfig(1500, 11)
	ds, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}

	// Degree calibration: the mean out-degree should land near
	// MeanFollowees (reciprocity adds some).
	avg := float64(ds.Graph.NumEdges()) / float64(ds.NumUsers())
	if avg < c.MeanFollowees*0.7 || avg > c.MeanFollowees*1.6 {
		t.Errorf("avg out-degree %.1f, want near %.1f", avg, c.MeanFollowees)
	}

	// Never-retweet cohort near NeverRetweetP.
	counts := dataset.UserRetweetCounts(ds.NumUsers(), ds.Actions)
	zero := 0
	for _, ct := range counts {
		if ct == 0 {
			zero++
		}
	}
	frac := float64(zero) / float64(len(counts))
	if frac < c.NeverRetweetP*0.8 || frac > c.NeverRetweetP*1.5 {
		t.Errorf("never-retweet fraction %.2f, want near %.2f", frac, c.NeverRetweetP)
	}

	// Heavy-tailed tweet popularity: most tweets never retweeted, a few
	// popular ones exist.
	pop := dataset.RetweetCounts(ds.NumTweets(), ds.Actions)
	never, popular := 0, 0
	for _, p := range pop {
		switch {
		case p == 0:
			never++
		case p >= 20:
			popular++
		}
	}
	if float64(never) < 0.3*float64(len(pop)) {
		t.Errorf("only %d/%d tweets never retweeted; want a dominant zero bucket", never, len(pop))
	}
	if popular == 0 {
		t.Error("no popular tweets generated; the popularity tail is missing")
	}

	// Actions must be time sorted and within the duration.
	for i, a := range ds.Actions {
		if a.Time < 0 || a.Time >= c.Duration {
			t.Fatalf("action %d time %v out of range", i, a.Time)
		}
		if i > 0 && a.Time < ds.Actions[i-1].Time {
			t.Fatal("actions not sorted by time")
		}
	}
}

func TestHomophilySignal(t *testing.T) {
	// Users at distance 1-2 must be more similar on average than random
	// pairs — the property SimGraph exploits. Verified through community
	// co-membership driving co-retweets.
	ds, err := Generate(DefaultConfig(1200, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Build profiles and compare mean similarity of followed pairs vs
	// random pairs.
	type pair struct{ a, b ids.UserID }
	var followPairs, randomPairs []pair
	for u := 0; u < 300; u++ {
		for _, v := range ds.Graph.Out(ids.UserID(u)) {
			followPairs = append(followPairs, pair{ids.UserID(u), v})
			if len(followPairs) >= 2000 {
				break
			}
		}
		randomPairs = append(randomPairs, pair{ids.UserID(u), ids.UserID((u*709 + 13) % 1200)})
	}
	profiles := make(map[ids.UserID]map[ids.TweetID]struct{})
	for _, a := range ds.Actions {
		m := profiles[a.User]
		if m == nil {
			m = make(map[ids.TweetID]struct{})
			profiles[a.User] = m
		}
		m[a.Tweet] = struct{}{}
	}
	jaccard := func(p pair) float64 {
		pa, pb := profiles[p.a], profiles[p.b]
		if len(pa) == 0 || len(pb) == 0 {
			return 0
		}
		inter := 0
		for t := range pa {
			if _, ok := pb[t]; ok {
				inter++
			}
		}
		return float64(inter) / float64(len(pa)+len(pb)-inter)
	}
	var fSum, rSum float64
	for _, p := range followPairs {
		fSum += jaccard(p)
	}
	for _, p := range randomPairs {
		rSum += jaccard(p)
	}
	fMean := fSum / float64(len(followPairs))
	rMean := rSum / float64(len(randomPairs))
	if fMean <= rMean {
		t.Errorf("no homophily: follow-pair similarity %.5f <= random-pair %.5f", fMean, rMean)
	}
}
