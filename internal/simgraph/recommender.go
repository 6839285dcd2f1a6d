package simgraph

import (
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/propagation"
	"repro/internal/recsys"
	"repro/internal/wgraph"
)

// RecommenderConfig tunes the end-to-end SimGraph recommender.
type RecommenderConfig struct {
	// Graph controls similarity-graph construction.
	Graph Config
	// Prop controls the propagation engine.
	Prop propagation.Config
	// Postpone enables the batched propagation scheduler (§5.4). With
	// postponement off, every observed retweet propagates immediately
	// (incrementally from the new sharer).
	Postpone bool
	// PostponeMin/PostponeMax bound the adaptive time frame δ.
	PostponeMin, PostponeMax ids.Timestamp
	// MaxAge evicts per-tweet propagation state once the tweet exceeds
	// this age — §3.1.2: scores need not be computed after 72 h.
	MaxAge ids.Timestamp
	// Metrics is the instrument registry the recommender reports into
	// (see the rec/* names resolved in attach). Nil gives the recommender
	// a private registry; the Engine passes its own registry, which also
	// makes the counters survive the recommender swap a RefreshGraphStats
	// performs.
	Metrics *metrics.Registry
	// OnChanged, when non-nil, is called after every state change that can
	// alter some user's recommendation list, with the users affected: the
	// sharer of each observed retweet (their pool loses the shared tweet)
	// and every user whose propagated score moved (TweetState.Changed).
	// The sharer call runs outside the recommender lock; the propagation
	// call runs under it, on whichever goroutine propagated (an Observe
	// caller, or a Recommend caller draining postponed batches). The
	// callback must be fast and safe for concurrent use, must not call
	// back into the recommender, and must not retain or modify the slice:
	// it is the tweet state's Changed list, which the tweet's next
	// propagation overwrites.
	// Serving layers hang cache invalidation here.
	OnChanged func(users []ids.UserID)
}

// DefaultRecommenderConfig returns the experiment configuration:
// dynamic threshold, immediate incremental propagation.
func DefaultRecommenderConfig() RecommenderConfig {
	prop := propagation.DefaultConfig()
	prop.Threshold = propagation.NewDynamicThreshold()
	return RecommenderConfig{
		Graph:       DefaultConfig(),
		Prop:        prop,
		Postpone:    false,
		PostponeMin: 10 * ids.Minute,
		PostponeMax: 4 * ids.Hour,
		MaxAge:      72 * ids.Hour,
	}
}

// Recommender is the paper's system: similarity graph + propagation.
// It implements recsys.Recommender.
//
// Concurrency: after Init, the recommender is safe for concurrent use,
// with one writer at a time. Every write to the streaming state — the
// scheduler, the per-tweet bookkeeping and the propagation itself, on the
// one Incremental the recommender owns — happens under r.mu, so Observe
// calls serialize there. Recommend calls from many goroutines proceed in
// parallel over the lock-split candidate pool; with postponement on, each
// first drains the due batches serially under r.mu. Init/InitWithGraph
// must happen-before any concurrent calls.
type Recommender struct {
	cfg  RecommenderConfig
	ds   *dataset.Dataset
	sim  *wgraph.Graph
	pool *recsys.Pool

	// mu guards all streaming state: sched, dueBuf, inc, states (the map
	// and the TweetState values), counts, and the eviction queue. It is
	// held across every propagation.
	mu    sync.Mutex
	sched *propagation.Scheduler
	// dueBuf is the reusable scheduler-pop buffer.
	dueBuf []propagation.Batch
	// inc is the recommender's one incremental propagator; its
	// epoch-stamped dense scratch is reused across every tweet.
	inc *propagation.Incremental

	// Per-tweet propagation state with lifetime eviction.
	states map[ids.TweetID]*propagation.TweetState
	counts map[ids.TweetID]int
	// evictQueue holds tweets in first-seen order for cheap age eviction.
	evictQueue []ids.TweetID
	evictHead  int

	// Instruments, resolved from the config registry in attach. All are
	// lock-free; they are updated under r.mu, where the counted work runs.
	mPropagations *metrics.Counter   // AddSeeds calls (immediate + drained)
	mRecomputes   *metrics.Counter   // user-score recomputations
	mRounds       *metrics.Counter   // cumulative frontier depth
	mFrontier     *metrics.Histogram // widest frontier round per propagation
	mBudgetHits   *metrics.Counter   // propagations cut short by the recompute budget
	mDrains       *metrics.Counter   // drains that flushed ≥ 1 batch
	mBatches      *metrics.Counter   // postponed batches propagated
	mDrainWall    *metrics.Histogram // wall ns per drain
	mBatchSize    *metrics.Histogram // batches per drain
	mEvictions    *metrics.Counter   // per-tweet states aged out
	mStates       *metrics.Gauge     // live per-tweet propagation states
	mPending      *metrics.Gauge     // scheduler pending-batch depth
}

// NewRecommender returns an untrained SimGraph recommender.
func NewRecommender(cfg RecommenderConfig) *Recommender {
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = 72 * ids.Hour
	}
	return &Recommender{cfg: cfg}
}

// Name implements recsys.Recommender.
func (r *Recommender) Name() string { return "SimGraph" }

// Graph exposes the built similarity graph (after Init).
func (r *Recommender) Graph() *wgraph.Graph { return r.sim }

// Init builds the similarity graph from the training profiles.
func (r *Recommender) Init(ctx *recsys.Context) error {
	r.ds = ctx.Dataset
	r.sim = Build(ctx.Dataset.Graph, ctx.Store, r.cfg.Graph)
	r.attach(ctx)
	return nil
}

// InitWithGraph installs a pre-built similarity graph (used by the
// update-strategy experiment, which builds variants outside Init).
func (r *Recommender) InitWithGraph(ctx *recsys.Context, g *wgraph.Graph) {
	r.ds = ctx.Dataset
	r.sim = g
	r.attach(ctx)
}

func (r *Recommender) attach(ctx *recsys.Context) {
	reg := r.cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r.mPropagations = reg.Counter("rec/propagations")
	r.mRecomputes = reg.Counter("rec/recomputations")
	r.mRounds = reg.Counter("rec/rounds")
	r.mFrontier = reg.Histogram("rec/frontier_width")
	r.mBudgetHits = reg.Counter("rec/budget_hits")
	r.mDrains = reg.Counter("rec/drains")
	r.mBatches = reg.Counter("rec/drain/batches")
	r.mDrainWall = reg.Histogram("rec/drain/wall_ns")
	r.mBatchSize = reg.Histogram("rec/drain/batch_size")
	r.mEvictions = reg.Counter("rec/evictions")
	r.mStates = reg.Gauge("rec/states")
	r.mPending = reg.Gauge("rec/sched/pending")
	r.mStates.Set(0)
	r.mPending.Set(0)

	r.inc = propagation.NewIncremental(r.sim, r.cfg.Prop)
	r.pool = recsys.NewPoolFor(ctx, func(t ids.TweetID) ids.Timestamp {
		return r.ds.Tweets[t].Time
	})
	r.states = make(map[ids.TweetID]*propagation.TweetState)
	r.counts = make(map[ids.TweetID]int)
	r.evictQueue = nil
	r.evictHead = 0
	if r.cfg.Postpone {
		r.sched = propagation.NewScheduler(r.cfg.PostponeMin, r.cfg.PostponeMax, 12)
	}
}

// Observe feeds one retweet from the test stream. Propagation runs
// incrementally from the new sharer, immediately or on the postponed
// schedule.
func (r *Recommender) Observe(a dataset.Action) {
	r.pool.MarkRetweeted(a.User, a.Tweet)
	if r.cfg.OnChanged != nil {
		// The sharer's own list changed even if the propagation below is
		// postponed or stale-dropped: MarkRetweeted just removed the tweet
		// from their candidates.
		r.cfg.OnChanged([]ids.UserID{a.User})
	}
	if a.Time-r.ds.Tweets[a.Tweet].Time > r.cfg.MaxAge {
		// The tweet is past the freshness horizon: its propagation state
		// was (or would immediately be) evicted, and recreating it would
		// append the old tweet to the back of evictQueue, breaking the
		// publication-ordered prefix scan that eviction relies on. The
		// share is still recorded in the pool above so the tweet is never
		// recommended back; the propagation itself is dropped.
		return
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, seen := r.counts[a.Tweet]; !seen {
		// First observation enters the tweet into the eviction queue —
		// keyed on counts, not states, so postponed batches that never
		// propagate still have their bookkeeping reclaimed.
		r.evictQueue = append(r.evictQueue, a.Tweet)
	}
	r.counts[a.Tweet]++
	r.evictExpired(a.Time)

	if r.sched == nil {
		if task, ok := r.resolveLocked(a.Tweet, []ids.UserID{a.User}, a.Time); ok {
			r.propagate(task)
		}
		return
	}
	r.sched.Observe(a.Tweet, a.User, a.Time, r.counts[a.Tweet])
	r.drainLocked(a.Time)
}

// drainTask is one resolved propagation unit: a tweet's state plus the
// new sharers and the popularity snapshot that drives the threshold.
type drainTask struct {
	st         *propagation.TweetState
	tweet      ids.TweetID
	users      []ids.UserID
	popularity int
}

// resolveLocked turns a flushed batch (or an immediate share) into a
// propagation task, creating per-tweet state on first touch. Callers
// hold r.mu.
func (r *Recommender) resolveLocked(t ids.TweetID, users []ids.UserID, now ids.Timestamp) (drainTask, bool) {
	st := r.states[t]
	if st == nil {
		if now-r.ds.Tweets[t].Time > r.cfg.MaxAge {
			// Evicted (or never fresh) by the time the batch drained:
			// never resurrect expired per-tweet state.
			return drainTask{}, false
		}
		st = propagation.NewTweetState()
		r.states[t] = st
		r.mStates.Set(int64(len(r.states)))
		// The author is an implicit sharer of their own post — unless
		// already among the sharers (an author retweeting their own
		// thread), which would seed the first propagation twice.
		author := r.ds.Tweets[t].Author
		implicit := true
		for _, u := range users {
			if u == author {
				implicit = false
				break
			}
		}
		if implicit {
			users = append([]ids.UserID{author}, users...)
		}
	}
	return drainTask{st: st, tweet: t, users: users, popularity: r.counts[t]}, true
}

// drainLocked pops every due postponed batch and propagates it, one
// tweet after another. Callers hold r.mu.
func (r *Recommender) drainLocked(now ids.Timestamp) {
	r.dueBuf = r.sched.DueAppend(now, r.dueBuf[:0])
	if len(r.dueBuf) > 0 {
		start := time.Now()
		n := 0
		for _, b := range r.dueBuf {
			if task, ok := r.resolveLocked(b.Tweet, b.Users, now); ok {
				r.propagate(task)
				n++
			}
		}
		if n > 0 {
			r.mBatchSize.Observe(int64(n))
			r.mDrains.Inc()
			r.mBatches.Add(uint64(n))
			r.mDrainWall.ObserveDuration(time.Since(start))
		}
	}
	r.mPending.Set(int64(r.sched.Pending()))
}

// propagate runs one task on the recommender's Incremental and refreshes
// pooled scores for the users whose probability changed. Callers hold
// r.mu; lock order is r.mu -> pool slot. OnChanged receives st.Changed
// itself, which stays valid until the next AddSeeds.
func (r *Recommender) propagate(task drainTask) {
	st := task.st
	r.inc.AddSeeds(st, task.users, task.popularity)
	for _, u := range st.Changed {
		r.pool.Bump(u, task.tweet, st.P[u])
	}
	if r.cfg.OnChanged != nil && len(st.Changed) > 0 {
		r.cfg.OnChanged(st.Changed)
	}
	r.mPropagations.Inc()
	r.mRecomputes.Add(uint64(r.inc.LastRecomputed()))
	r.mRounds.Add(uint64(r.inc.LastRounds()))
	r.mFrontier.Observe(int64(r.inc.LastMaxFrontier()))
	if r.inc.LastBudgetHit() {
		r.mBudgetHits.Inc()
	}
}

// evictExpired drops propagation state of tweets past the freshness
// horizon. Tweets enter evictQueue in first-observation order, which is
// publication-correlated, so a prefix scan suffices (stale observations
// are dropped in Observe, preserving the ordering invariant). Callers
// hold r.mu.
func (r *Recommender) evictExpired(now ids.Timestamp) {
	evicted := 0
	for r.evictHead < len(r.evictQueue) {
		t := r.evictQueue[r.evictHead]
		if now-r.ds.Tweets[t].Time <= r.cfg.MaxAge {
			break
		}
		if st := r.states[t]; st != nil {
			// The tweet can never be recommended again: its pool
			// entries and already-shared marks go with its state.
			// Every seed is in P (AddSeeds scores it 1), so P names
			// every user the tweet touched.
			for u := range st.P {
				r.pool.Forget(u, t)
			}
		}
		delete(r.states, t)
		delete(r.counts, t)
		if r.sched != nil {
			r.sched.Drop(t)
		}
		r.evictHead++
		evicted++
	}
	if evicted > 0 {
		r.mEvictions.Add(uint64(evicted))
		r.mStates.Set(int64(len(r.states)))
		if r.sched != nil {
			r.mPending.Set(int64(r.sched.Pending()))
		}
	}
	// Compact occasionally so the queue does not grow without bound.
	if r.evictHead > 4096 && r.evictHead*2 > len(r.evictQueue) {
		r.evictQueue = append([]ids.TweetID(nil), r.evictQueue[r.evictHead:]...)
		r.evictHead = 0
	}
}

// Recommend implements recsys.Recommender. Safe for concurrent callers:
// with postponement off it touches only the lock-split pool; with
// postponement on, it first drains the due batches under r.mu.
func (r *Recommender) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	if r.sched != nil {
		r.mu.Lock()
		r.drainLocked(now)
		r.mu.Unlock()
	}
	return r.pool.TopK(u, k, now)
}

var _ recsys.Recommender = (*Recommender)(nil)
