package simgraph

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/ids"
	"repro/internal/propagation"
	"repro/internal/recsys"
)

// TestPoolFollowsLiveWindow streams the whole test split (about three
// freshness horizons) with no reads and no refresh, so nothing but
// eviction can shed candidates. Once a horizon has passed, the posting
// lists must hold the live window, not the stream: their total size (plus
// share marks) at the end stays within 1.5× its size one horizon in. And
// an evicted tweet state must have released its vectors at once.
func TestPoolFollowsLiveWindow(t *testing.T) {
	ds, err := gen.Generate(gen.DefaultConfig(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	split, err := ds.SplitByFraction(0.9)
	if err != nil {
		t.Fatal(err)
	}
	tracked := make([]ids.UserID, ds.NumUsers())
	for u := range tracked {
		tracked[u] = ids.UserID(u)
	}
	ctx := recsys.NewContext(ds, split.Train, tracked, 1)
	r := NewRecommender(DefaultRecommenderConfig())
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	poolSize := func() int {
		n := 0
		for _, c := range r.lists {
			n += len(c.post) + len(c.shared)
		}
		return n
	}
	seen := make(map[*propagation.TweetState]ids.TweetID)
	cut := split.Train[len(split.Train)-1].Time
	atHorizon := -1
	for i, a := range split.Test {
		if atHorizon < 0 && a.Time-cut >= ctx.MaxAge {
			atHorizon = poolSize()
		}
		r.Observe(a)
		if i%500 == 0 {
			for tw, st := range r.states {
				if st != nil {
					seen[st] = ids.TweetID(tw)
				}
			}
		}
	}
	end := poolSize()
	released := 0
	for st, tw := range seen {
		if r.states[tw] == st {
			continue
		}
		if st.Len() != 0 {
			t.Fatalf("evicted state of tweet %d still holds %d slots", tw, st.Len())
		}
		released++
	}
	if released == 0 {
		t.Fatal("no state was evicted during the stream")
	}
	span := split.Test[len(split.Test)-1].Time - cut
	t.Logf("posting entries %d at %dh, %d at %dh; %d evicted states released", atHorizon, ctx.MaxAge/ids.Hour, end, span/ids.Hour, released)
	if atHorizon <= 0 {
		t.Fatalf("stream spans %dh, shorter than the %dh horizon", span/ids.Hour, ctx.MaxAge/ids.Hour)
	}
	if 2*end > 3*atHorizon {
		t.Fatalf("posting lists grew with the stream: %d entries at the end, %d one horizon in (limit 1.5x)", end, atHorizon)
	}
}
