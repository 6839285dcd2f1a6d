package repro

// This file holds the serving-layer entry points of the Engine: the
// write path (ObserveBatch, which Observe and POST /observe call with
// one action), and the cache-aware
// read path (RecommendWithColdStart) that tells the caller whether the result
// came from the cold-start fallback — which aggregates OTHER users'
// candidates and is therefore not invalidated by the SetOnScoresChanged
// hook, so serving caches must not hold it. internal/server is the
// consumer.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/recsys"
)

// ObserveBatch applies a batch of retweets with ONE exclusive-lock
// entry and — when the WAL supports buffered appends — one group-commit
// durability wait for the whole batch, instead of a lock entry and an
// fsync per action: a caller holding N actions pays one reader
// quiescence and one fsync for all of them. It is the engine's only
// write path; Observe is a one-action batch.
//
// The result has one slot per action, aligned with the input: nil when
// the action was applied (and durably logged), an error wrapping
// ErrWALRecordLogged when it was applied and logged but durability is
// in doubt (append-after-write failure, or the batch's group sync
// failed), and any other error when the action was rejected without
// side effects (validation or a not-logged WAL failure). Actions are
// applied in input order; a rejected action does not stop the rest of
// the batch.
func (e *Engine) ObserveBatch(actions []Action) []error {
	errs := make([]error, len(actions))
	if len(actions) == 0 {
		return errs
	}
	start := time.Now()
	applied := 0
	// logged tracks the indices whose buffered append succeeded cleanly:
	// exactly the ones a failed group sync downgrades to degraded.
	var logged []int
	e.mu.Lock()
	for i, a := range actions {
		if err := validateIDs(e.ds, a.User, a.Tweet); err != nil {
			errs[i] = err
			continue
		}
		if e.wal != nil {
			var err error
			if e.walBuf != nil {
				_, err = e.walBuf.AppendBuffered(a)
			} else {
				_, err = e.wal.Append(a)
			}
			if err != nil {
				if !errors.Is(err, ErrWALRecordLogged) {
					errs[i] = fmt.Errorf("repro: WAL append: %w", err)
					continue
				}
				e.mWALDegraded.Inc()
				errs[i] = fmt.Errorf("repro: WAL degraded (action applied and logged): %w", err)
			} else if e.walBuf != nil {
				logged = append(logged, i)
			}
		}
		e.observed = append(e.observed, a)
		if a.Time > e.observedNewest {
			e.observedNewest = a.Time
		}
		e.store.Observe(a.User, a.Tweet)
		e.rec.Observe(a)
		applied++
	}
	e.mObservedLen.Set(int64(len(e.observed)))
	e.mu.Unlock()
	if len(logged) > 0 {
		// One durability wait for the whole batch, after the lock: the
		// group commit. A failed sync leaves every cleanly logged action
		// applied but of doubtful durability — the same contract as a
		// single degraded Observe, reported per action.
		if err := e.walBuf.SyncAfterAppend(); err != nil {
			for _, i := range logged {
				e.mWALDegraded.Inc()
				errs[i] = fmt.Errorf("repro: WAL degraded (action applied and logged): %w", err)
			}
		}
	}
	e.mObserves.Add(uint64(applied))
	e.mBatches.Inc()
	e.mBatchSize.Observe(int64(len(actions)))
	e.mBatchNs.ObserveDuration(time.Since(start))
	return errs
}

// RecommendWithColdStart is Recommend, additionally reporting whether
// the result came from the cold-start followee aggregation. A cold
// result depends on the FOLLOWEES' candidate lists, not on u's own
// state, so the SetOnScoresChanged hook gives no signal when it goes
// stale — serving caches must treat cold results as uncacheable.
func (e *Engine) RecommendWithColdStart(u UserID, k int, now Timestamp) ([]Recommendation, bool) {
	if int(u) >= e.ds.NumUsers() || k <= 0 {
		return nil, false
	}
	start := time.Now()
	defer func() {
		e.mRecommendLat.ObserveDuration(time.Since(start))
		e.mRecommends.Inc()
	}()
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := e.rec.Recommend(u, k, now)
	if len(out) > 0 || !e.opts.ColdStartFallback {
		return out, false
	}
	e.mColdStarts.Inc()
	top := recsys.NewTopK(k)
	for _, r := range e.coldStartAggregate(u, k, now) {
		top.Offer(r.Tweet, r.Score)
	}
	return top.Ranked(), true
}
