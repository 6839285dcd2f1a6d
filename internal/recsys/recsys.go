// Package recsys defines the interface every recommendation method in the
// evaluation implements (SimGraph, CF, Bayes, GraphJet), plus the shared
// candidate-pool and top-k machinery they build on.
//
// The evaluation protocol (§6.1) is streaming: methods are initialized on
// the training split, then observe the test actions one by one in time
// order; at each day boundary the harness asks for each tracked user's
// ranked recommendations.
package recsys

import (
	"container/heap"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/similarity"
)

// ScoredTweet is one ranked recommendation.
type ScoredTweet struct {
	Tweet ids.TweetID
	Score float64
}

// Context carries everything a method needs for initialization.
type Context struct {
	// Dataset is the full dataset (graph + tweets). Methods must not read
	// Actions beyond Train — the rest is the hidden test set.
	Dataset *dataset.Dataset
	// Train is the training action log (a prefix of Dataset.Actions).
	Train []dataset.Action
	// Store holds profiles/popularity built from Train. Methods that
	// observe test actions incrementally may update it; the harness gives
	// each method its own copy.
	Store *similarity.Store
	// Tracked lists the users the harness will query; methods may ignore
	// score updates for everyone else (a pure optimization: the paper
	// evaluates on a 1 500-user sample too).
	Tracked []ids.UserID
	// MaxAge is the freshness horizon (§3.1.2 concludes 72 h). It governs
	// reads (tweets older than this are never recommended) and eviction
	// (methods that keep per-tweet state, such as SimGraph, drop it once
	// the tweet is older than this).
	MaxAge ids.Timestamp
	// Seed feeds any randomized method (GraphJet walks).
	Seed uint64
}

// NewContext assembles a Context with its own similarity store.
func NewContext(ds *dataset.Dataset, train []dataset.Action, tracked []ids.UserID, seed uint64) *Context {
	return &Context{
		Dataset: ds,
		Train:   train,
		Store:   similarity.NewStore(ds.NumUsers(), ds.NumTweets(), train),
		Tracked: tracked,
		MaxAge:  72 * ids.Hour,
		Seed:    seed,
	}
}

// Recommender is one evaluated method.
type Recommender interface {
	// Name identifies the method in reports ("SimGraph", "CF", ...).
	Name() string
	// Init trains the method. Called once before any Observe/Recommend.
	Init(ctx *Context) error
	// Observe feeds one test action in time order.
	Observe(a dataset.Action)
	// Recommend returns up to k fresh recommendations for u, best first,
	// based on everything observed strictly before now.
	Recommend(u ids.UserID, k int, now ids.Timestamp) []ScoredTweet
}

// Pool accumulates per-user candidate tweets with scores, evicting stale
// tweets lazily on read. It serves the evaluation's CF and Bayes
// baselines: observing a message pushes candidate scores for tracked
// users; Recommend drains the freshest top-k. (SimGraph keeps no pool: it
// ranks straight from its per-tweet score vectors.)
//
// The pool is safe for concurrent use. Locking is split per tracked user
// (one mutex per slot), so readers of different users never contend;
// only same-user operations serialize. The tracked map itself is
// immutable after NewPool.
type Pool struct {
	tracked  map[ids.UserID]int // user → slot; read-only after NewPool
	slots    []poolSlot
	pubTimes func(ids.TweetID) ids.Timestamp
	maxAge   ids.Timestamp
}

// poolSlot is one tracked user's candidate state plus its lock.
type poolSlot struct {
	mu        sync.Mutex
	entries   map[ids.TweetID]float64
	retweeted map[ids.TweetID]struct{} // tweets the user already shared
}

// NewPool creates a pool for the tracked users. pubTime resolves a
// tweet's publication time for freshness eviction.
func NewPool(tracked []ids.UserID, pubTime func(ids.TweetID) ids.Timestamp, maxAge ids.Timestamp) *Pool {
	p := &Pool{
		tracked:  make(map[ids.UserID]int, len(tracked)),
		slots:    make([]poolSlot, len(tracked)),
		pubTimes: pubTime,
		maxAge:   maxAge,
	}
	for i, u := range tracked {
		p.tracked[u] = i
		p.slots[i].entries = make(map[ids.TweetID]float64)
		p.slots[i].retweeted = make(map[ids.TweetID]struct{})
	}
	return p
}

// NewPoolFor creates the pool a method initialized on ctx streams into:
// ctx.Tracked users, ctx.MaxAge freshness, with every FreshTrainShares
// share marked retweeted.
func NewPoolFor(ctx *Context, pubTime func(ids.TweetID) ids.Timestamp) *Pool {
	p := NewPool(ctx.Tracked, pubTime, ctx.MaxAge)
	ctx.FreshTrainShares(pubTime, p.MarkRetweeted)
	return p
}

// FreshTrainShares calls mark for every training share of a tweet still
// fresh at the end of ctx.Train, so a tweet a user shared just before the
// train/stream cut is never recommended back to them. Older training
// shares need no record: their tweets are past the horizon for every
// later read.
func (ctx *Context) FreshTrainShares(pubTime func(ids.TweetID) ids.Timestamp, mark func(ids.UserID, ids.TweetID)) {
	train := ctx.Train
	if len(train) == 0 {
		return
	}
	horizon := train[len(train)-1].Time - ctx.MaxAge
	for i := len(train) - 1; i >= 0 && train[i].Time >= horizon; i-- {
		if pubTime(train[i].Tweet) >= horizon {
			mark(train[i].User, train[i].Tweet)
		}
	}
}

// Bump raises u's candidate score for t to at least score (no-op for
// untracked users and tweets the user already shared).
func (p *Pool) Bump(u ids.UserID, t ids.TweetID, score float64) {
	slot, ok := p.tracked[u]
	if !ok {
		return
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, shared := s.retweeted[t]; shared {
		return
	}
	if cur, exists := s.entries[t]; !exists || score > cur {
		s.entries[t] = score
	}
}

// Add accumulates score onto u's candidate entry for t.
func (p *Pool) Add(u ids.UserID, t ids.TweetID, score float64) {
	slot, ok := p.tracked[u]
	if !ok {
		return
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, shared := s.retweeted[t]; shared {
		return
	}
	s.entries[t] += score
}

// MarkRetweeted records that u shared t, removing it from u's candidates
// permanently (recommending it back would be pointless).
func (p *Pool) MarkRetweeted(u ids.UserID, t ids.TweetID) {
	slot, ok := p.tracked[u]
	if !ok {
		return
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retweeted[t] = struct{}{}
	delete(s.entries, t)
}

// TopK returns u's best k fresh candidates at time now, evicting expired
// entries as it scans.
func (p *Pool) TopK(u ids.UserID, k int, now ids.Timestamp) []ScoredTweet {
	slot, ok := p.tracked[u]
	if !ok {
		return nil
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	var expired []ids.TweetID
	h := NewTopK(k)
	for t, sc := range s.entries {
		if now-p.pubTimes(t) > p.maxAge {
			expired = append(expired, t)
			continue
		}
		h.Offer(t, sc)
	}
	for _, t := range expired {
		delete(s.entries, t)
	}
	return h.Ranked()
}

// Size returns the number of candidates currently pooled for u.
func (p *Pool) Size(u ids.UserID) int {
	slot, ok := p.tracked[u]
	if !ok {
		return 0
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// TopK is a bounded min-heap that keeps the k highest-scored tweets.
type TopK struct {
	k int
	h scoredHeap
}

// NewTopK returns a collector for the k best items.
func NewTopK(k int) *TopK {
	return &TopK{k: k, h: make(scoredHeap, 0, k+1)}
}

// Admits reports whether Offer(tweet, score) would keep the candidate:
// callers with a costly eligibility check run it only on admitted ones.
func (t *TopK) Admits(tweet ids.TweetID, score float64) bool {
	if len(t.h) < t.k {
		return true
	}
	return t.k > 0 && (score > t.h[0].Score || (score == t.h[0].Score && tweet < t.h[0].Tweet))
}

// Offer considers one candidate.
func (t *TopK) Offer(tweet ids.TweetID, score float64) {
	if !t.Admits(tweet, score) {
		return
	}
	if len(t.h) < t.k {
		heap.Push(&t.h, ScoredTweet{tweet, score})
		return
	}
	t.h[0] = ScoredTweet{tweet, score}
	heap.Fix(&t.h, 0)
}

// Ranked drains the collector, best first. Ties break on lower TweetID
// for determinism.
func (t *TopK) Ranked() []ScoredTweet {
	out := make([]ScoredTweet, len(t.h))
	copy(out, t.h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tweet < out[j].Tweet
	})
	t.h = t.h[:0]
	return out
}

// scoredHeap is a min-heap on (Score, then reversed TweetID) so the root
// is the weakest element.
type scoredHeap []ScoredTweet

func (h scoredHeap) Len() int { return len(h) }
func (h scoredHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Tweet > h[j].Tweet
}
func (h scoredHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scoredHeap) Push(x interface{}) { *h = append(*h, x.(ScoredTweet)) }
func (h *scoredHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
