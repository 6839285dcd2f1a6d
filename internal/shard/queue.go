package shard

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/metrics"
)

// This file implements the per-shard asynchronous ingest path: a bounded
// mailbox per shard drained by one applier goroutine. A single producer
// (a stream tailer, a replication feed) calls ObserveAsync and keeps all
// K shards busy concurrently instead of rate-limiting the fleet to its
// own round-trip through each shard's exclusive lock. The queue depth is
// the back-pressure signal (router/shard/<i>/queue_depth); a full
// mailbox blocks the producer, which is the correct default for a
// durability-ordered stream (shedding belongs at the network layer,
// where the caller can be told).

// queuedAction is one mailbox entry; flush is a barrier token: the
// applier acknowledges it once everything enqueued before it has been
// applied.
type queuedAction struct {
	user  repro.UserID
	tweet repro.TweetID
	at    repro.Timestamp
	flush chan struct{}
}

// shardQueue is one shard's mailbox plus its applier lifecycle.
type shardQueue struct {
	ch    chan queuedAction
	done  chan struct{}
	depth *metrics.Gauge
}

// errHolder keeps the first asynchronous apply error for Flush/Close to
// surface; later errors are counted, not stored.
type errHolder struct {
	mu    sync.Mutex
	first error
	count atomic.Uint64
}

func (h *errHolder) set(err error) {
	h.count.Add(1)
	h.mu.Lock()
	if h.first == nil {
		h.first = err
	}
	h.mu.Unlock()
}

func (h *errHolder) get() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.first
}

// asyncErr is lazily attached to the Router by startQueues. Fatal apply
// errors (action neither logged nor applied) and degraded appends (the
// action WAS applied and reached the WAL, but its durability is in
// doubt — the engine reports these as ErrWALRecordLogged) are tracked
// separately: conflating them either hid durability loss behind a clean
// Flush, or would now make a degraded-but-serving stream look fatally
// broken.
type asyncState struct {
	errs      errHolder
	degraded  errHolder
	mErrors   *metrics.Counter // router/async/errors
	mDegraded *metrics.Counter // router/async/degraded
	mApplied  *metrics.Counter // router/async/applied
}

var errAsyncDisabled = errors.New("shard: ObserveAsync requires Options.QueueDepth > 0")

// startQueues launches one applier per shard when Options.QueueDepth
// asks for the async path.
func (r *Router) startQueues() {
	if r.opts.QueueDepth <= 0 {
		return
	}
	r.async = &asyncState{
		mErrors:   r.reg.Counter("router/async/errors"),
		mDegraded: r.reg.Counter("router/async/degraded"),
		mApplied:  r.reg.Counter("router/async/applied"),
	}
	r.queues = make([]*shardQueue, len(r.shards))
	for i := range r.shards {
		q := &shardQueue{
			ch:    make(chan queuedAction, r.opts.QueueDepth),
			done:  make(chan struct{}),
			depth: r.mQueueDepth[i],
		}
		r.queues[i] = q
		go r.applierLoop(i, q)
	}
}

// applierLoop drains one shard's mailbox in FIFO order. Apply errors are
// recorded and counted but do not stop the applier: the stream must keep
// moving, and the producer learns about the degradation from Flush (or
// the router/async/errors counter) rather than from a wedged queue.
// A degraded append (ErrWALRecordLogged) counts as applied — the engine
// did apply and log the action — but is recorded separately so Flush can
// surface that WAL durability is in doubt instead of returning nil.
func (r *Router) applierLoop(shard int, q *shardQueue) {
	defer close(q.done)
	for qa := range q.ch {
		if qa.flush != nil {
			close(qa.flush)
			continue
		}
		q.depth.Add(-1)
		if err := r.shards[shard].Observe(qa.user, qa.tweet, qa.at); err != nil {
			if !errors.Is(err, repro.ErrWALRecordLogged) {
				r.async.errs.set(err)
				r.async.mErrors.Inc()
				continue
			}
			r.async.degraded.set(err)
			r.async.mDegraded.Inc()
		}
		r.noteApplied(shard, qa.tweet)
		r.async.mApplied.Inc()
	}
}

// ObserveAsync enqueues one retweet on its owner shard's mailbox and
// returns once it is queued (blocking when the mailbox is full — queue
// depth is the back-pressure signal). Apply errors surface on the next
// Flush or Close, not here; per-shard FIFO order matches Observe's
// apply order exactly, because a user's actions all route to one
// mailbox.
func (r *Router) ObserveAsync(u repro.UserID, t repro.TweetID, at repro.Timestamp) error {
	if r.queues == nil {
		return errAsyncDisabled
	}
	s := r.ring.Owner(u)
	q := r.queues[s]
	q.depth.Add(1)
	q.ch <- queuedAction{user: u, tweet: t, at: at}
	return nil
}

// Flush blocks until every action enqueued before the call has been
// applied on its shard, then reports the first asynchronous apply error
// recorded so far (nil when the whole stream applied cleanly and every
// append was durably logged). A fatal apply error wins; otherwise a
// degraded append — applied and logged, durability in doubt — surfaces
// as an error satisfying errors.Is(err, repro.ErrWALRecordLogged), so
// the producer can distinguish "lost actions" from "fsync in doubt".
// Flush must not race with ObserveAsync on the same actions it is meant
// to cover — the barrier covers what was enqueued strictly before it.
func (r *Router) Flush() error {
	if r.queues == nil {
		return errAsyncDisabled
	}
	barriers := make([]chan struct{}, len(r.queues))
	for i, q := range r.queues {
		b := make(chan struct{})
		barriers[i] = b
		q.ch <- queuedAction{flush: b}
	}
	for _, b := range barriers {
		<-b
	}
	if err := r.async.errs.get(); err != nil {
		return err
	}
	return r.async.degraded.get()
}

// stopQueues flushes and stops the appliers; Close calls it before
// closing the shard engines so no queued action is lost.
func (r *Router) stopQueues() error {
	if r.queues == nil {
		return nil
	}
	err := r.Flush()
	for _, q := range r.queues {
		close(q.ch)
		<-q.done
	}
	r.queues = nil
	return err
}
