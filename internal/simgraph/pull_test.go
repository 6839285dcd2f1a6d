package simgraph

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/ids"
	"repro/internal/propagation"
	"repro/internal/recsys"
)

// poolReference is SimGraph driven the way it was before reads pulled
// scores from the tweet states: after every propagation each changed user
// gets a recsys.Pool Bump with their new score, and every share marks the
// tweet retweeted. Its propagation runs the frozen RefIncremental over
// map-based RefState, so it shares nothing with the recommender under
// test but the algorithm. It never forgets: reads filter expired tweets.
type poolReference struct {
	ds     *dataset.Dataset
	maxAge ids.Timestamp
	inc    *propagation.RefIncremental
	pool   *recsys.Pool
	states map[ids.TweetID]*propagation.RefState
	counts map[ids.TweetID]int
	queue  []ids.TweetID
}

func newPoolReference(ctx *recsys.Context, g *propagation.RefIncremental, maxAge ids.Timestamp) *poolReference {
	ds := ctx.Dataset
	return &poolReference{
		ds:     ds,
		maxAge: maxAge,
		inc:    g,
		pool:   recsys.NewPoolFor(ctx, func(t ids.TweetID) ids.Timestamp { return ds.Tweets[t].Time }),
		states: make(map[ids.TweetID]*propagation.RefState),
		counts: make(map[ids.TweetID]int),
	}
}

func (p *poolReference) observe(a dataset.Action) {
	p.pool.MarkRetweeted(a.User, a.Tweet)
	if a.Time-p.ds.Tweets[a.Tweet].Time > p.maxAge {
		return
	}
	if _, seen := p.counts[a.Tweet]; !seen {
		p.queue = append(p.queue, a.Tweet)
	}
	p.counts[a.Tweet]++
	for len(p.queue) > 0 && a.Time-p.ds.Tweets[p.queue[0]].Time > p.maxAge {
		delete(p.states, p.queue[0])
		delete(p.counts, p.queue[0])
		p.queue = p.queue[1:]
	}
	seeds := []ids.UserID{a.User}
	st := p.states[a.Tweet]
	if st == nil {
		st = propagation.NewRefState()
		p.states[a.Tweet] = st
		if author := p.ds.Tweets[a.Tweet].Author; author != a.User {
			seeds = []ids.UserID{author, a.User}
		}
	}
	p.inc.AddSeeds(st, seeds, p.counts[a.Tweet])
	for _, u := range st.Changed {
		p.pool.Bump(u, a.Tweet, st.P[u])
	}
}

// TestPullMatchesPool replays a 1 000-user test split through the
// recommender and through poolReference. At every simulated day boundary
// every user's top 10 must be identical in both, scores bit for bit: the
// pulled live score equals the pooled maximum because scores never fall.
func TestPullMatchesPool(t *testing.T) {
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
	cfg := DefaultRecommenderConfig()
	r := NewRecommender(cfg)
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	ref := newPoolReference(ctx, propagation.NewRefIncremental(r.Graph(), cfg.Prop), ctx.MaxAge)

	compare := func(now ids.Timestamp) (lists, items int) {
		for _, u := range tracked {
			got := r.Recommend(u, 10, now)
			want := ref.pool.TopK(u, 10, now)
			if len(got) != len(want) {
				t.Fatalf("user %d at day %d: %d recommendations, pool %d\n got %v\nwant %v", u, now/ids.Day, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i].Tweet != want[i].Tweet || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("user %d at day %d, rank %d: %v, pool %v", u, now/ids.Day, i, got[i], want[i])
				}
			}
			if len(want) > 0 {
				lists++
			}
			items += len(want)
		}
		return lists, items
	}

	boundary := (split.Train[len(split.Train)-1].Time/ids.Day + 1) * ids.Day
	days, lists, items := 0, 0, 0
	for _, a := range split.Test {
		for a.Time >= boundary {
			l, n := compare(boundary)
			days, lists, items = days+1, lists+l, items+n
			boundary += ids.Day
		}
		r.Observe(a)
		ref.observe(a)
	}
	l, n := compare(boundary)
	days, lists, items = days+1, lists+l, items+n
	t.Logf("%d day boundaries, %d non-empty lists, %d recommendations compared", days, lists, items)
	if days < 3 || items == 0 {
		t.Fatalf("replay compared too little: %d days, %d recommendations", days, items)
	}
}
