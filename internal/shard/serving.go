package shard

// Serving-layer entry points of the Router, mirroring the Engine's:
// batched writes that coalesce into one lock entry + group commit PER
// SHARD, the score-change hook a serving cache invalidates from, and
// the cold-start-aware read path. internal/server drives a Router
// exclusively through these plus the core Router API.

import (
	"errors"
	"fmt"
	"sync"

	"repro"
)

// ObserveBatch partitions the batch by owner shard and applies each
// shard's sub-batch with one (*repro.Engine).ObserveBatch call, so the
// whole batch costs at most one exclusive-lock entry and one group
// commit per shard — and the per-shard sub-batches run concurrently.
// When a single shard owns every valid action (always so for Observe's
// one-action batch), that sub-batch is applied inline, with no
// goroutine.
//
// The result is aligned with the input, one slot per action, with the
// engine batch contract per slot: nil (applied, durable), an error
// wrapping repro.ErrWALRecordLogged (applied and logged, durability in
// doubt), or a rejection error (no side effects). Relative order is
// preserved per user (a user's actions all land on one shard, in input
// order); cross-user order across shards is not, which matches the
// async-queue contract.
func (r *Router) ObserveBatch(actions []repro.Action) []error {
	errs := make([]error, len(actions))
	perShard := make([][]int, len(r.shards))
	owners := 0 // shards that own at least one action
	for i, a := range actions {
		if int(a.User) >= r.ds.NumUsers() {
			// An out-of-range user has no owner on the ring; reject here.
			// Invalid tweet IDs are the owning engine's business.
			errs[i] = fmt.Errorf("repro: user %d out of range (dataset has %d users)", a.User, r.ds.NumUsers())
			continue
		}
		s := r.ring.Owner(a.User)
		if len(perShard[s]) == 0 {
			owners++
		}
		perShard[s] = append(perShard[s], i)
	}
	apply := func(s int, idxs []int) {
		sub := actions
		if len(idxs) != len(actions) {
			sub = make([]repro.Action, len(idxs))
			for j, i := range idxs {
				sub[j] = actions[i]
			}
		}
		for j, err := range r.shards[s].ObserveBatch(sub) {
			i := idxs[j]
			errs[i] = err
			if err == nil || errors.Is(err, repro.ErrWALRecordLogged) {
				r.noteApplied(s, actions[i].Tweet)
			}
		}
	}
	var wg sync.WaitGroup
	for s, idxs := range perShard {
		switch {
		case len(idxs) == 0:
		case owners == 1:
			apply(s, idxs)
		default:
			wg.Add(1)
			go func(s int, idxs []int) {
				defer wg.Done()
				apply(s, idxs)
			}(s, idxs)
		}
	}
	wg.Wait()
	return errs
}

// SetOnScoresChanged installs fn on every shard engine (see
// repro.Engine.SetOnScoresChanged for the contract: fn may run under
// engine locks and concurrently from many goroutines, and a nil users
// slice means "assume everything changed"). One hook serves the fleet;
// the caller cannot tell which shard fired, and does not need to — the
// user IDs identify the invalidation targets.
func (r *Router) SetOnScoresChanged(fn func(users []repro.UserID)) {
	for _, e := range r.shards {
		e.SetOnScoresChanged(fn)
	}
}

// RecommendWithColdStart serves user u from their owner shard and
// reports whether the result came from the cold-start scatter-gather.
// When the owner has no candidates (a cold or evicted user), the router
// gathers every shard's cold-start partial aggregate and merges them:
// each followee of u is tracked on exactly one shard and every engine
// normalizes by the user's full followee count, so the merged aggregate
// equals the single-engine fallback over the union of the shards'
// pools. Cold results aggregate the followees' pools across shards, so
// the per-user score-change hook gives no staleness signal for them —
// serving caches must not hold them (same contract as the engine
// method).
func (r *Router) RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool) {
	if k <= 0 || int(u) >= r.ds.NumUsers() {
		return nil, false
	}
	s := r.ring.Owner(u)
	r.mRecommends.Inc()
	r.mShardRecs[s].Inc()
	if out := r.shards[s].Recommend(u, k, now); len(out) > 0 {
		return out, false
	}
	return r.coldStartFanout(u, k, now), true
}
