// Package bayes implements the Bayesian-inference recommendation baseline
// (after Yang, Guo & Liu, IEEE TPDS 2013) in the binary-feedback variant
// the paper describes in §6.1: instead of 1–5 ratings, the only evidence
// is "shared / did nothing", and a probability threshold cuts off the
// otherwise costly inference walk over the social network.
//
// Model. Every follow edge u→v is a trust channel with adoption
// probability
//
//	trust(u→v) = TrustP × |Lu| / (|Lu| + PriorK)
//
// — a single Bernoulli link parameter scaled by u's prior propensity to
// share (Yang et al.'s trust lives on the social link itself; learning a
// per-edge cascade probability would be a different, stronger baseline).
// Online, when a tweet's sharer set grows, the posterior that a
// non-sharer u would share it combines the independent evidence from u's
// followees by noisy-OR:
//
//	p(u) = 1 − Π_{v ∈ followees(u)} (1 − trust(u→v)·p(v))
//
// propagated breadth-first from the sharers; branches whose posterior
// falls below the threshold stop (the paper's "threshold in the Bayesian
// probabilities computation to stop the costly process").
//
// The inference runs on the *follow* graph, which is much denser than the
// similarity graph, so the per-message cost is the highest of all methods
// — exactly the Table 5 behaviour — and the recommendations are "local"
// (Figure 12: lowest average hit popularity).
package bayes

import (
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/recsys"
)

// Config tunes the Bayes baseline.
type Config struct {
	// Threshold stops propagating posteriors below this value.
	Threshold float64
	// MaxDepth bounds the inference BFS depth as a safety net.
	MaxDepth int
	// TrustP is the per-link adoption probability. Yang et al.'s model
	// treats the social link itself as the trust channel; with binary
	// feedback this reduces to one Bernoulli parameter per link, scaled by
	// the receiving user's share prior — not a per-edge learned cascade
	// model, which would be a different (and stronger) baseline than the
	// one the paper compares against.
	TrustP float64
	// PriorK is the pseudo-count of the per-user share prior
	// |Lu|/(|Lu|+PriorK).
	PriorK float64
	// Workers parallelizes trust estimation; 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the experiment configuration.
func DefaultConfig() Config {
	return Config{Threshold: 0.12, MaxDepth: 3, TrustP: 0.25, PriorK: 25}
}

// Recommender is the Bayes baseline. Not safe for concurrent use after
// Init.
type Recommender struct {
	cfg    Config
	ds     *dataset.Dataset
	follow *graph.Graph
	pool   *recsys.Pool

	// trust[u] aligns with follow.Out(u): trust of u in each followee.
	trust [][]float32

	// Per-tweet posterior state, evicted past the freshness horizon. The
	// inference is incremental: a new sharer injects evidence that
	// propagates outward only where posteriors actually move.
	posts      map[ids.TweetID]map[ids.UserID]float64
	maxAge     ids.Timestamp
	evictQueue []ids.TweetID
	evictHead  int
	queue      []ids.UserID
}

// New returns an untrained Bayes recommender.
func New(cfg Config) *Recommender {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.01
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.TrustP <= 0 {
		cfg.TrustP = 0.35
	}
	if cfg.PriorK <= 0 {
		cfg.PriorK = 20
	}
	return &Recommender{cfg: cfg}
}

// Name implements recsys.Recommender.
func (r *Recommender) Name() string { return "Bayes" }

// Init estimates per-edge trusts from the training profiles.
func (r *Recommender) Init(ctx *recsys.Context) error {
	r.ds = ctx.Dataset
	r.follow = ctx.Dataset.Graph
	r.pool = recsys.NewPoolFor(ctx, func(t ids.TweetID) ids.Timestamp {
		return r.ds.Tweets[t].Time
	})
	r.posts = make(map[ids.TweetID]map[ids.UserID]float64)
	r.maxAge = ctx.MaxAge
	r.evictQueue = nil
	r.evictHead = 0

	n := r.follow.NumNodes()
	r.trust = make([][]float32, n)
	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				out := r.follow.Out(ids.UserID(u))
				if len(out) == 0 {
					continue
				}
				// trust(u→v) = TrustP × prior(u): one Bernoulli link
				// parameter scaled by u's share prior, constant across
				// u's followees — the model trusts the link, not a
				// learned per-edge cascade probability.
				prior := float64(ctx.Store.ProfileSize(ids.UserID(u)))
				tr := float32(r.cfg.TrustP * prior / (prior + r.cfg.PriorK))
				ts := make([]float32, len(out))
				for i := range ts {
					ts[i] = tr
				}
				r.trust[u] = ts
			}
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

// Observe updates the posterior map for the acted-on tweet with the new
// sharer's evidence.
func (r *Recommender) Observe(a dataset.Action) {
	r.pool.MarkRetweeted(a.User, a.Tweet)
	r.evictExpired(a.Time)
	post := r.posts[a.Tweet]
	if post == nil {
		post = make(map[ids.UserID]float64)
		r.posts[a.Tweet] = post
		r.evictQueue = append(r.evictQueue, a.Tweet)
		r.infer(a.Tweet, post, r.ds.Tweets[a.Tweet].Author)
	}
	r.infer(a.Tweet, post, a.User)
}

// infer injects one sharer's evidence into the tweet's posterior map and
// propagates it breadth-first through the followers, stopping on the
// probability threshold or the depth cap; updated users' pooled scores
// are refreshed.
//
// The update is the incremental noisy-OR: each newly arrived unit of
// evidence Δp(v) reaching a follower u multiplies u's "no-share" odds by
// (1 − trust(u→v)·Δp(v)). When p(v) was previously 0 — the overwhelmingly
// common case — this equals the exact batch noisy-OR.
func (r *Recommender) infer(t ids.TweetID, post map[ids.UserID]float64, sharer ids.UserID) {
	old := post[sharer]
	post[sharer] = 1
	type item struct {
		u     ids.UserID
		delta float64
		depth int
	}
	queue := []item{{sharer, 1 - old, 0}}
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		if it.depth >= r.cfg.MaxDepth {
			continue
		}
		for _, u := range r.follow.In(it.u) {
			pu := post[u]
			if pu >= 1 {
				continue
			}
			tr := r.trustFor(u, it.u)
			if tr == 0 {
				continue
			}
			nu := 1 - (1-pu)*(1-float64(tr)*it.delta)
			if nu-pu < r.cfg.Threshold {
				continue
			}
			post[u] = nu
			r.pool.Bump(u, t, nu)
			queue = append(queue, item{u, nu - pu, it.depth + 1})
		}
	}
}

// evictExpired drops posterior state of tweets past the freshness horizon.
func (r *Recommender) evictExpired(now ids.Timestamp) {
	for r.evictHead < len(r.evictQueue) {
		t := r.evictQueue[r.evictHead]
		if now-r.ds.Tweets[t].Time <= r.maxAge {
			break
		}
		delete(r.posts, t)
		r.evictHead++
	}
	if r.evictHead > 4096 && r.evictHead*2 > len(r.evictQueue) {
		r.evictQueue = append([]ids.TweetID(nil), r.evictQueue[r.evictHead:]...)
		r.evictHead = 0
	}
}

// trustFor looks up trust(u→v) in the CSR-aligned table via binary
// search over u's sorted followee list.
func (r *Recommender) trustFor(u, v ids.UserID) float32 {
	out := r.follow.Out(u)
	ts := r.trust[u]
	lo, hi := 0, len(out)
	for lo < hi {
		mid := (lo + hi) / 2
		if out[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(out) && out[lo] == v && ts != nil {
		return ts[lo]
	}
	return 0
}

// Recommend implements recsys.Recommender.
func (r *Recommender) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	return r.pool.TopK(u, k, now)
}

var _ recsys.Recommender = (*Recommender)(nil)
