package simgraph

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/ids"
	"repro/internal/recsys"
)

// TestPoolFollowsLiveWindow streams the whole test split (about three
// freshness horizons) with no reads and no refresh, so nothing but
// eviction can shed pool entries. Once a horizon has passed, the pool
// must hold the live window, not the stream: its total size at the end
// stays within 1.5× its size one horizon in.
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
		for _, u := range tracked {
			n += r.pool.Size(u)
		}
		return n
	}
	cut := split.Train[len(split.Train)-1].Time
	atHorizon := -1
	for _, a := range split.Test {
		if atHorizon < 0 && a.Time-cut >= ctx.MaxAge {
			atHorizon = poolSize()
		}
		r.Observe(a)
	}
	end := poolSize()
	span := split.Test[len(split.Test)-1].Time - cut
	t.Logf("pool size %d at %dh, %d at %dh", atHorizon, ctx.MaxAge/ids.Hour, end, span/ids.Hour)
	if atHorizon <= 0 {
		t.Fatalf("stream spans %dh, shorter than the %dh horizon", span/ids.Hour, ctx.MaxAge/ids.Hour)
	}
	if 2*end > 3*atHorizon {
		t.Fatalf("pool grew with the stream: %d entries at the end, %d one horizon in (limit 1.5x)", end, atHorizon)
	}
}
