package simgraph

import (
	"slices"
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
	// Metrics is the instrument registry the recommender reports into
	// (see the rec/* names resolved in attach). Nil gives the recommender
	// a private registry; the Engine passes its own registry, which also
	// makes the counters survive the recommender swap a RefreshGraphStats
	// performs.
	Metrics *metrics.Registry
	// OnChanged, when non-nil, is called after every state change that can
	// alter some user's recommendation list, with the users affected: the
	// sharer of each observed retweet (the shared tweet leaves their list)
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
	}
}

// Recommender is the paper's system: similarity graph + propagation.
// It implements recsys.Recommender.
//
// Each (user, tweet) score is stored once, in the tweet's flat
// propagation state. A tracked user's candidates are a posting list of
// (tweet, slot) pairs, appended when a propagation first reaches the user
// for that tweet; Recommend pulls the live score from states[tweet] at
// that slot. Scores never decrease (propagation.TestScoresNeverDecrease),
// so the live score is the maximum a push-based pool would have kept.
//
// Concurrency: after Init, the recommender is safe for concurrent use,
// with one writer at a time. Every write to the streaming state — the
// scheduler, the per-tweet states, the posting lists and the propagation
// itself, on the one Incremental the recommender owns — happens under the
// write lock of r.mu, so Observe calls serialize there. Recommend calls
// from many goroutines read in parallel under its read lock; with
// postponement on, each first drains the due batches under the write
// lock. Init/InitWithGraph must happen-before any concurrent calls.
type Recommender struct {
	cfg RecommenderConfig
	ds  *dataset.Dataset
	sim *wgraph.Graph
	// maxAge is the freshness horizon, the context's MaxAge (§3.1.2:
	// scores need not be computed after 72 h). A tweet older than it
	// against the stream clock loses its propagation state and never
	// gets state again; one older than it at read time is never returned.
	maxAge ids.Timestamp

	// mu guards all streaming state below. Writers (Observe, drains) hold
	// it exclusively across every propagation; Recommend holds it shared.
	mu    sync.RWMutex
	sched *propagation.Scheduler
	// dueBuf is the reusable scheduler-pop buffer.
	dueBuf []propagation.Batch
	// inc is the recommender's one incremental propagator; its
	// epoch-stamped dense scratch is reused across every tweet.
	inc *propagation.Incremental

	// Per-tweet propagation state and stream counts, dense by TweetID:
	// nil / 0 for tweets never observed or already evicted. live counts
	// the non-nil states.
	states []*propagation.TweetState
	counts []int
	live   int
	// evictQueue holds tweets in first-seen order for cheap age eviction.
	evictQueue []ids.TweetID
	evictHead  int
	// newest is the stream clock: the latest action time observed. A
	// tweet older than maxAge against it is evicted and never gets state
	// again, so an evicted state never comes back.
	newest ids.Timestamp

	// listOf maps a user to their index in lists, or -1 if untracked.
	listOf []int32
	lists  []candidates

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

// candidates is one tracked user's read index.
type candidates struct {
	// post holds a pair per tweet whose propagation reached the user as a
	// non-seed: the score is states[tweet].Score(slot).
	post []posting
	// shared lists the tweets the user shared (in the stream, or in the
	// training tail while still fresh); they are never recommended back.
	shared []ids.TweetID
	// stale counts entries whose tweet was evicted since the last trim
	// (an upper bound: every user of an evicted state is counted).
	stale int
}

// posting names one user's score in one tweet's state. It holds no
// pointer, so posting lists cost the garbage collector nothing to scan.
type posting struct {
	tweet ids.TweetID
	slot  int32
}

// NewRecommender returns an untrained SimGraph recommender.
func NewRecommender(cfg RecommenderConfig) *Recommender {
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
	r.maxAge = ctx.MaxAge
	r.states = make([]*propagation.TweetState, r.ds.NumTweets())
	r.counts = make([]int, r.ds.NumTweets())
	r.live = 0
	r.evictQueue = nil
	r.evictHead = 0
	r.newest = 0
	r.listOf = make([]int32, r.ds.NumUsers())
	for u := range r.listOf {
		r.listOf[u] = -1
	}
	r.lists = make([]candidates, len(ctx.Tracked))
	for i, u := range ctx.Tracked {
		if int(u) < len(r.listOf) { // an unknown user can never be reached
			r.listOf[u] = int32(i)
		}
	}
	ctx.FreshTrainShares(func(t ids.TweetID) ids.Timestamp { return r.ds.Tweets[t].Time }, r.markShared)
	if r.cfg.Postpone {
		r.sched = propagation.NewScheduler(r.cfg.PostponeMin, r.cfg.PostponeMax, 12)
	}
}

// Observe feeds one retweet from the test stream. Propagation runs
// incrementally from the new sharer, immediately or on the postponed
// schedule.
func (r *Recommender) Observe(a dataset.Action) {
	r.mu.Lock()
	r.observeLocked(a)
	r.mu.Unlock()
	if r.cfg.OnChanged != nil {
		// The sharer's own list changed even if the propagation was
		// postponed or stale-dropped: the tweet left their candidates.
		r.cfg.OnChanged([]ids.UserID{a.User})
	}
}

func (r *Recommender) observeLocked(a dataset.Action) {
	r.markShared(a.User, a.Tweet)
	if a.Time > r.newest {
		r.newest = a.Time
	}
	if r.newest-r.ds.Tweets[a.Tweet].Time > r.maxAge {
		// The tweet is past the freshness horizon: its propagation state
		// was (or would immediately be) evicted, and recreating it would
		// append the old tweet to the back of evictQueue, breaking the
		// publication-ordered prefix scan that eviction relies on. The
		// share is still recorded above so the tweet is never recommended
		// back; the propagation itself is dropped.
		return
	}
	if r.counts[a.Tweet] == 0 {
		// First observation enters the tweet into the eviction queue —
		// keyed on counts, not states, so postponed batches that never
		// propagate still have their bookkeeping reclaimed.
		r.evictQueue = append(r.evictQueue, a.Tweet)
	}
	r.counts[a.Tweet]++
	r.evictExpired()

	if r.sched == nil {
		if task, ok := r.resolveLocked(a.Tweet, []ids.UserID{a.User}, r.newest); ok {
			r.propagate(task)
		}
		return
	}
	r.sched.Observe(a.Tweet, a.User, a.Time, r.counts[a.Tweet])
	r.drainLocked(r.newest)
}

// candidatesOf returns u's read index, or nil if u is untracked.
func (r *Recommender) candidatesOf(u ids.UserID) *candidates {
	if int(u) >= len(r.listOf) || r.listOf[u] < 0 {
		return nil
	}
	return &r.lists[r.listOf[u]]
}

// markShared records that u shared t. Callers hold r.mu exclusively.
func (r *Recommender) markShared(u ids.UserID, t ids.TweetID) {
	c := r.candidatesOf(u)
	if c == nil {
		return
	}
	if len(c.shared) == cap(c.shared) {
		// Trim before growing: shares of tweets that never get state (stale
		// or training-tail shares) are reclaimed here. If the trim freed
		// less than half, double the room so the next trim is as many
		// appends away as the list is long: amortised O(1).
		r.trim(c)
		if 2*len(c.shared) > cap(c.shared) {
			c.shared = slices.Grow(c.shared, len(c.shared))
		}
	}
	c.shared = append(c.shared, t)
}

// trim drops c's postings and share marks whose tweet can never be
// returned again: its state was evicted, or it has none and is past the
// horizon (so it never will have one). Callers hold r.mu exclusively.
func (r *Recommender) trim(c *candidates) {
	post := c.post[:0]
	for _, p := range c.post {
		if r.states[p.tweet] != nil {
			post = append(post, p)
		}
	}
	c.post = post
	shared := c.shared[:0]
	for _, t := range c.shared {
		if r.states[t] != nil || r.newest-r.ds.Tweets[t].Time <= r.maxAge {
			shared = append(shared, t)
		}
	}
	c.shared = shared
	c.stale = 0
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
// hold r.mu exclusively.
func (r *Recommender) resolveLocked(t ids.TweetID, users []ids.UserID, now ids.Timestamp) (drainTask, bool) {
	st := r.states[t]
	if st == nil {
		if now-r.ds.Tweets[t].Time > r.maxAge {
			// Evicted (or never fresh) by the time the batch drained:
			// never resurrect expired per-tweet state.
			return drainTask{}, false
		}
		st = propagation.NewTweetState()
		r.states[t] = st
		r.live++
		r.mStates.Set(int64(r.live))
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
// tweet after another. Callers hold r.mu exclusively.
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

// propagate runs one task on the recommender's Incremental and posts
// the tweet to every tracked user it reached for the first time. Callers
// hold r.mu exclusively. OnChanged receives st.Changed itself, which
// stays valid until the next AddSeeds.
func (r *Recommender) propagate(task drainTask) {
	st := task.st
	before := st.Len()
	r.inc.AddSeeds(st, task.users, task.popularity)
	// AddSeeds appends first-touched users after the old slots; a seed is
	// never a candidate, so only the non-seeds among them get a posting.
	for i := before; i < st.Len(); i++ {
		if st.IsSeed(i) {
			continue
		}
		if c := r.candidatesOf(st.User(i)); c != nil {
			c.post = append(c.post, posting{tweet: task.tweet, slot: int32(i)})
		}
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
// horizon of the stream clock. Tweets enter evictQueue in
// first-observation order, which is publication-correlated, so a prefix
// scan suffices (stale observations are dropped in Observe, preserving
// the ordering invariant). Callers hold r.mu exclusively.
func (r *Recommender) evictExpired() {
	evicted := 0
	for r.evictHead < len(r.evictQueue) {
		t := r.evictQueue[r.evictHead]
		if r.newest-r.ds.Tweets[t].Time <= r.maxAge {
			break
		}
		if st := r.states[t]; st != nil {
			r.states[t] = nil
			r.live--
			// Every user holding a posting for t is in st, and so is every
			// sharer whose share propagated. A list is trimmed once a
			// quarter of it may be stale: amortised O(1) per entry, and
			// the lists stay O(live window).
			for i := 0; i < st.Len(); i++ {
				if c := r.candidatesOf(st.User(i)); c != nil {
					c.stale++
					if 4*c.stale > len(c.post)+len(c.shared) {
						r.trim(c)
					}
				}
			}
			st.Release()
		}
		r.counts[t] = 0
		if r.sched != nil {
			r.sched.Drop(t)
		}
		r.evictHead++
		evicted++
	}
	if evicted > 0 {
		r.mEvictions.Add(uint64(evicted))
		r.mStates.Set(int64(r.live))
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
// it ranks u's postings under the read lock, never mutating them; with
// postponement on, it first drains the due batches under the write lock.
func (r *Recommender) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	if r.sched != nil {
		r.mu.Lock()
		r.drainLocked(now)
		r.mu.Unlock()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.candidatesOf(u)
	if c == nil {
		return nil
	}
	// Eligibility (fresh, not a seed, not shared) costs random loads, so
	// it is checked only for scores the collector would admit.
	top := recsys.NewTopK(k)
	for _, p := range c.post {
		st := r.states[p.tweet]
		if st == nil {
			continue
		}
		slot := int(p.slot)
		score := st.Score(slot)
		if !top.Admits(p.tweet, score) || st.IsSeed(slot) ||
			now-r.ds.Tweets[p.tweet].Time > r.maxAge || slices.Contains(c.shared, p.tweet) {
			continue
		}
		top.Offer(p.tweet, score)
	}
	return top.Ranked()
}

var _ recsys.Recommender = (*Recommender)(nil)
