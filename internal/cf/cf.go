// Package cf implements the user-based collaborative filtering baseline
// (Herlocker et al., SIGIR'99) the paper compares against: offline, every
// pair of users gets a similarity score; online, a user's predicted
// interest in a tweet is the similarity-weighted vote of their nearest
// neighbours who shared it.
//
// The defining properties the evaluation exposes (§6.2): CF is independent
// of the follow network, so its candidate scope is the whole user base —
// recommendation volume grows linearly with k (Figure 7) and precision is
// low; and its initialization is by far the most expensive (Table 5), the
// all-pairs similarity being quadratic in users. We keep the quadratic
// scan per evaluated user but prune with an inverted tweet→users index, as
// any real implementation must, and note it in Table 5's caption.
package cf

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/recsys"
	"repro/internal/similarity"
)

// Config tunes the CF baseline.
type Config struct {
	// Neighbors is the per-user neighbourhood size N.
	Neighbors int
	// Workers parallelizes initialization; 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the experiment configuration.
func DefaultConfig() Config { return Config{Neighbors: 250} }

// Recommender is the CF baseline. Not safe for concurrent use after Init.
type Recommender struct {
	cfg  Config
	ds   *dataset.Dataset
	pool *recsys.Pool

	// rev maps a neighbour v to the tracked users who count v among
	// their top-N, with the attached similarity: observing v's retweet
	// bumps those users' candidate scores.
	rev map[ids.UserID][]weightedTarget
}

type weightedTarget struct {
	user ids.UserID
	sim  float64
}

// New returns an untrained CF recommender.
func New(cfg Config) *Recommender {
	if cfg.Neighbors <= 0 {
		cfg.Neighbors = 100
	}
	return &Recommender{cfg: cfg}
}

// Name implements recsys.Recommender.
func (r *Recommender) Name() string { return "CF" }

// Init computes the top-N similar users for every tracked user.
func (r *Recommender) Init(ctx *recsys.Context) error {
	r.ds = ctx.Dataset
	r.pool = recsys.NewPoolFor(ctx, func(t ids.TweetID) ids.Timestamp {
		return r.ds.Tweets[t].Time
	})
	r.rev = make(map[ids.UserID][]weightedTarget)

	inv := buildInvertedIndex(ctx.Store)

	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type result struct {
		user      ids.UserID
		neighbors []similarity.Scored
	}
	tasks := make(chan ids.UserID, len(ctx.Tracked))
	results := make(chan result, len(ctx.Tracked))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range tasks {
				results <- result{u, TopNeighbors(ctx.Store, inv, u, r.cfg.Neighbors)}
			}
		}()
	}
	for _, u := range ctx.Tracked {
		tasks <- u
	}
	close(tasks)
	go func() { wg.Wait(); close(results) }()

	for res := range results {
		for _, nb := range res.neighbors {
			r.rev[nb.User] = append(r.rev[nb.User], weightedTarget{res.user, nb.Sim})
		}
	}
	return nil
}

// buildInvertedIndex maps each tweet to the users who retweeted it in
// training.
func buildInvertedIndex(store *similarity.Store) map[ids.TweetID][]ids.UserID {
	inv := make(map[ids.TweetID][]ids.UserID)
	for u := 0; u < store.NumUsers(); u++ {
		for _, t := range store.Profile(ids.UserID(u)) {
			inv[t] = append(inv[t], ids.UserID(u))
		}
	}
	return inv
}

// TopNeighbors finds the n most similar users to u among all users who
// co-retweeted at least one tweet with u (everyone else has sim = 0).
func TopNeighbors(store *similarity.Store, inv map[ids.TweetID][]ids.UserID, u ids.UserID, n int) []similarity.Scored {
	seen := make(map[ids.UserID]struct{})
	for _, t := range store.Profile(u) {
		for _, v := range inv[t] {
			if v != u {
				seen[v] = struct{}{}
			}
		}
	}
	candidates := make([]ids.UserID, 0, len(seen))
	for v := range seen {
		candidates = append(candidates, v)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	return store.TopSimilar(u, candidates, n)
}

// Observe bumps candidate scores of every tracked user who counts the
// acting user among their neighbours.
func (r *Recommender) Observe(a dataset.Action) {
	r.pool.MarkRetweeted(a.User, a.Tweet)
	for _, tgt := range r.rev[a.User] {
		r.pool.Add(tgt.user, a.Tweet, tgt.sim)
	}
}

// Recommend implements recsys.Recommender.
func (r *Recommender) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	return r.pool.TopK(u, k, now)
}

var _ recsys.Recommender = (*Recommender)(nil)
