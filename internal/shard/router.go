package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/metrics"
	"repro/internal/recsys"
)

const (
	// MaxShards caps the fleet size: the cross-shard loss tracker packs
	// the set of shards that observed each tweet into one 64-bit mask.
	MaxShards = 64
	// DefaultReplicas is the virtual-node count per shard. 128 keeps the
	// max/mean key imbalance of hashed ownership under ~1.15 at 64 shards
	// (see TestRingKeyBalance) while the ring stays small enough that
	// Owner's binary search costs a handful of cache lines.
	DefaultReplicas = 128
)

// Options configures a Router. The zero value is not valid; set Shards.
type Options struct {
	// Shards is the engine-shard count (1..MaxShards). 1 is a valid
	// degenerate fleet — the router then adds only routing overhead,
	// which is exactly the baseline BenchmarkRouterObserve measures
	// against.
	Shards int
	// Replicas is the virtual-node count per shard on the hash ring
	// (<= 0 takes DefaultReplicas).
	Replicas int
	// Seed positions the ring's virtual nodes (0 is a valid seed). The
	// same (Shards, Replicas, Seed) triple always produces the same
	// user→shard ownership.
	Seed uint64
	// QueueDepth, when > 0, enables the per-shard asynchronous ingest
	// queues behind ObserveAsync: each shard gets a bounded mailbox and
	// one applier goroutine, so a single producer can keep every shard
	// busy without blocking on the slowest one. 0 disables ObserveAsync.
	QueueDepth int
}

// Router fans the Engine API out across a consistent-hash fleet of
// shards. Each shard is a full repro.Engine that owns a user partition:
// its profile store, candidate pools, and propagation state cover only
// the users the ring assigns to it, so the shards share no mutable state
// and Observe throughput scales with shards × cores instead of
// serializing behind one RWMutex.
//
// What is exact and what is approximate: Observe, Recommend for a warm
// user, PropagateScores, and crash recovery are per-shard-exact (each
// user's state lives wholly on its owner). What degrades is the
// similarity *signal*: a co-retweet between users on different shards
// can no longer become a similarity edge, because neither shard sees
// both profiles. The router counts every such event
// (router/cross_shard_observes) and the quality cost is measured — not
// assumed — by internal/eval's QualityDelta against a single-engine
// oracle (see eval_test.go).
//
// Router is safe for concurrent use: its own state is immutable after
// construction except for atomic counters, and each shard enforces its
// own engine-level contract.
type Router struct {
	ring   *Ring
	shards []*repro.Engine
	ds     *repro.Dataset
	opts   Options

	// dirs are the per-shard durability directories when the router was
	// built by Open; nil for in-memory fleets.
	dirs []string

	// tweetShards[t] is the atomic bitmask of shards that observed a
	// share of tweet t. A second distinct shard joining the mask means
	// co-retweeters of t are now split across engines and their
	// similarity edges are lost — the honest price of partitioning,
	// surfaced as a counter instead of silently degrading quality.
	tweetShards []uint64

	queues []*shardQueue
	async  *asyncState

	closeOnce sync.Once
	closeErr  error

	// Router-level instruments. Shard-local engine registries are rolled
	// up (prefixed shard/<i>/) by Metrics.
	reg            *metrics.Registry
	mObserves      *metrics.Counter   // router/observes
	mRecommends    *metrics.Counter   // router/recommends
	mFanouts       *metrics.Counter   // router/fanouts (scatter-gather recommends)
	mCrossObserves *metrics.Counter   // router/cross_shard_observes
	mCrossSim      *metrics.Counter   // router/cross_shard_sim_zero
	mPropFanouts   *metrics.Counter   // router/propagate_fanouts
	mShardObserves []*metrics.Counter // router/shard/<i>/observes
	mShardRecs     []*metrics.Counter // router/shard/<i>/recommends
	mQueueDepth    []*metrics.Gauge   // router/shard/<i>/queue_depth
}

// newRouter wires the common Router shell around a ring and a shard
// slice; New and Open finish it with engines.
func newRouter(ds *repro.Dataset, ring *Ring, opts Options) *Router {
	r := &Router{
		ring:        ring,
		shards:      make([]*repro.Engine, ring.NumShards()),
		ds:          ds,
		opts:        opts,
		tweetShards: make([]uint64, ds.NumTweets()),
		reg:         metrics.NewRegistry(),
	}
	r.mObserves = r.reg.Counter("router/observes")
	r.mRecommends = r.reg.Counter("router/recommends")
	r.mFanouts = r.reg.Counter("router/fanouts")
	r.mCrossObserves = r.reg.Counter("router/cross_shard_observes")
	r.mCrossSim = r.reg.Counter("router/cross_shard_sim_zero")
	r.mPropFanouts = r.reg.Counter("router/propagate_fanouts")
	for i := 0; i < ring.NumShards(); i++ {
		r.mShardObserves = append(r.mShardObserves, r.reg.Counter(fmt.Sprintf("router/shard/%d/observes", i)))
		r.mShardRecs = append(r.mShardRecs, r.reg.Counter(fmt.Sprintf("router/shard/%d/recommends", i)))
		r.mQueueDepth = append(r.mQueueDepth, r.reg.Gauge(fmt.Sprintf("router/shard/%d/queue_depth", i)))
	}
	return r
}

// NumShards returns the fleet size.
func (r *Router) NumShards() int { return len(r.shards) }

// Owner returns the shard index that owns user u.
func (r *Router) Owner(u repro.UserID) int { return r.ring.Owner(u) }

// Shard exposes one shard's engine, for tests and tooling that need the
// underlying per-shard view (e.g. asserting an action landed only on its
// owner). Production callers should stay on the Router API.
func (r *Router) Shard(i int) *repro.Engine { return r.shards[i] }

// Ring returns the ownership ring.
func (r *Router) Ring() *Ring { return r.ring }

// Dataset returns the dataset every shard serves. It is shared by all
// shards and must be treated as immutable — see (*repro.Engine).Dataset.
func (r *Router) Dataset() *repro.Dataset { return r.ds }

// Observe streams one retweet to the owning shard. Only that shard's
// writers quiesce; the other N-1 shards keep serving and observing in
// parallel — this is the scaling move the single-engine RWMutex blocked.
// It is a one-action ObserveBatch; the error contract is the owning
// engine's (see repro.Engine.Observe).
func (r *Router) Observe(u repro.UserID, t repro.TweetID, at repro.Timestamp) error {
	return r.ObserveBatch([]repro.Action{{User: u, Tweet: t, Time: at}})[0]
}

// noteApplied does the router's bookkeeping for one action shard s
// applied, durably or degraded: the observe counters and the tweet's
// cross-shard loss mask. ObserveBatch and the async appliers share it.
func (r *Router) noteApplied(s int, t repro.TweetID) {
	r.mObserves.Inc()
	r.mShardObserves[s].Inc()
	r.noteTweetShard(s, t)
}

// noteTweetShard folds shard s into tweet t's observer mask and counts a
// cross-shard loss when t already had sharers on a different shard: from
// that moment on, similarity mass between s's retweeters of t and the
// other shards' retweeters of t is unrecoverable.
func (r *Router) noteTweetShard(s int, t repro.TweetID) {
	if len(r.shards) == 1 || int(t) >= len(r.tweetShards) {
		return
	}
	addr := &r.tweetShards[t]
	bit := uint64(1) << uint(s)
	for {
		old := atomic.LoadUint64(addr)
		if old&^bit != 0 {
			// Another shard already observed this tweet: this action's
			// cross-shard co-retweet signal is lost. Counted per action,
			// so the counter tracks lost similarity *mass*, not just the
			// first split.
			r.mCrossObserves.Inc()
		}
		if old&bit != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old|bit) {
			return
		}
	}
}

// Recommend serves user u from their owner shard, falling back to the
// cross-shard cold-start merge; see RecommendWithColdStart.
func (r *Router) Recommend(u repro.UserID, k int, now repro.Timestamp) []repro.Recommendation {
	out, _ := r.RecommendWithColdStart(u, k, now)
	return out
}

// coldStartFanout merges every shard's ColdStartPartial into one top-k.
// Scores are summed: the per-shard lists are averages over the same
// (global) followee count restricted to disjoint followee subsets, so
// the sum reconstructs the global average. The partials are UNtruncated
// — truncation happens once, after the merge, in mergeTopK. Merging
// per-shard top-k lists instead would drop any tweet whose summed score
// belongs in the merged top-k but that no single shard ranks that high
// (the classic distributed top-k mistake; pinned by
// TestColdStartFanoutKeepsCrossShardWinner).
func (r *Router) coldStartFanout(u repro.UserID, k int, now repro.Timestamp) []repro.Recommendation {
	r.mFanouts.Inc()
	partials := make([][]repro.Recommendation, len(r.shards))
	if len(r.shards) == 1 {
		partials[0] = r.shards[0].ColdStartPartial(u, k, now)
	} else {
		var wg sync.WaitGroup
		for i := range r.shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				partials[i] = r.shards[i].ColdStartPartial(u, k, now)
			}(i)
		}
		wg.Wait()
	}
	return mergeTopK(partials, k)
}

// mergeTopK sums the scores of every (shard, tweet) partial, in shard
// order, and keeps the k best.
func mergeTopK(partials [][]repro.Recommendation, k int) []repro.Recommendation {
	agg := make(map[repro.TweetID]float64)
	for _, part := range partials {
		for _, rec := range part {
			agg[rec.Tweet] += rec.Score
		}
	}
	top := recsys.NewTopK(k)
	for t, s := range agg {
		top.Offer(t, s)
	}
	return top.Ranked()
}

// Similarity returns sim(u, v) when both users live on the same shard,
// and 0 otherwise: neither engine holds both profiles, so a cross-shard
// pair has no computable similarity. The zero is counted
// (router/cross_shard_sim_zero) rather than hidden — it is the same
// partitioning cost the cross-shard observe counter tracks on the write
// path.
func (r *Router) Similarity(u, v repro.UserID) float64 {
	su, sv := r.ring.Owner(u), r.ring.Owner(v)
	if su != sv {
		r.mCrossSim.Inc()
		return 0
	}
	return r.shards[su].Similarity(u, v)
}

// PropagateScores partitions the seed set by owner, runs the per-shard
// propagations concurrently, and merges the score maps. Each shard's
// similarity graph only carries edges between its own users (a profile
// absent from the shard can never clear τ), so the per-shard result sets
// are disjoint and the merge is a union; summation is used anyway so a
// future overlay with cross-shard edges stays correct.
func (r *Router) PropagateScores(seeds []repro.UserID) map[repro.UserID]float64 {
	if len(r.shards) == 1 {
		return r.shards[0].PropagateScores(seeds)
	}
	bySeed := make([][]repro.UserID, len(r.shards))
	for _, s := range seeds {
		if int(s) >= r.ds.NumUsers() {
			continue // out-of-range seeds are dropped at the engine boundary anyway
		}
		o := r.ring.Owner(s)
		bySeed[o] = append(bySeed[o], s)
	}
	results := make([]map[repro.UserID]float64, len(r.shards))
	var wg sync.WaitGroup
	fanned := 0
	for i, part := range bySeed {
		if len(part) == 0 {
			continue
		}
		fanned++
		wg.Add(1)
		go func(i int, part []repro.UserID) {
			defer wg.Done()
			results[i] = r.shards[i].PropagateScores(part)
		}(i, part)
	}
	wg.Wait()
	if fanned > 1 {
		r.mPropFanouts.Inc()
	}
	out := make(map[repro.UserID]float64)
	for _, res := range results {
		for u, p := range res {
			out[u] += p
		}
	}
	return out
}

// RefreshGraphStats runs one maintenance pass on every shard
// concurrently and returns the per-shard cost splits, indexed by
// shard. The passes run concurrently: each shard's write
// stall overlaps the others', so the fleet-wide stall is the max, not
// the sum, of the per-shard stalls.
func (r *Router) RefreshGraphStats(strategy repro.UpdateStrategy) []repro.RefreshStats {
	stats := make([]repro.RefreshStats, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = r.shards[i].RefreshGraphStats(strategy)
		}(i)
	}
	wg.Wait()
	return stats
}

// ObservedActions merges every shard's observed log into one slice,
// ordered by (time, user, tweet) so the result is deterministic: the
// per-shard logs preserve arrival order but the cross-shard interleaving
// is not recorded (it never influences state — an action only touches
// its owner). Each call returns a fresh copy.
func (r *Router) ObservedActions() []repro.Action {
	var out []repro.Action
	for _, e := range r.shards {
		out = append(out, e.ObservedActions()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Tweet < out[j].Tweet
	})
	return out
}

// ShardLoads returns each shard's applied-observe count, for imbalance
// monitoring (max/mean over this slice is the skew the zipf routing test
// bounds).
func (r *Router) ShardLoads() []uint64 {
	loads := make([]uint64, len(r.shards))
	for i, c := range r.mShardObserves {
		loads[i] = c.Value()
	}
	return loads
}

// CrossShardObserves returns the cumulative count of observes whose
// tweet already had sharers on a different shard — the lost-similarity
// signal counter.
func (r *Router) CrossShardObserves() uint64 { return r.mCrossObserves.Value() }

// Metrics snapshots the whole fleet into one view: the router/* series
// plus every shard engine's registry re-rooted under shard/<i>/. One
// registry per shard stays the source of truth (engines never share
// instruments, so shard hot paths never contend); the rollup happens at
// snapshot time, where contention is irrelevant.
func (r *Router) Metrics() metrics.Snapshot {
	out := r.reg.Snapshot()
	if out.Counters == nil {
		out.Counters = make(map[string]uint64)
	}
	if out.Gauges == nil {
		out.Gauges = make(map[string]int64)
	}
	if out.Histograms == nil {
		out.Histograms = make(map[string]metrics.HistogramSnapshot)
	}
	for i, e := range r.shards {
		prefix := fmt.Sprintf("shard/%d/", i)
		s := e.Metrics()
		for name, v := range s.Counters {
			out.Counters[prefix+name] = v
		}
		for name, v := range s.Gauges {
			out.Gauges[prefix+name] = v
		}
		for name, v := range s.Histograms {
			out.Histograms[prefix+name] = v
		}
	}
	return out
}

// MetricsRegistry exposes the router-level registry (the shard/<i>/
// rollup exists only in Metrics snapshots; per-shard live registries are
// reachable via Shard(i).MetricsRegistry()).
func (r *Router) MetricsRegistry() *metrics.Registry { return r.reg }
