package repro

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/durable"
)

// This file wires the durable subsystem (internal/durable) into the
// Engine: OpenEngine recovers an engine from a directory of checkpoints
// plus a WAL tail, (*Engine).Checkpoint snapshots a live engine, and
// EngineOptions.WAL is the hook that makes Observe write-ahead log every
// accepted action. See DESIGN.md §11 for the recovery invariants.

// ActionLog is the write-ahead hook Observe appends to before applying
// an action. Append must be safe for concurrent use and is called under
// the engine's exclusive lock, so the log order it sees equals the apply
// order. NextIndex reports the index the next append would get — with
// writers quiesced it is exactly the count of actions both logged and
// applied, which is what a checkpoint records as its WAL high-water
// mark. *durable.WAL implements it.
//
// An Append error wrapping ErrWALRecordLogged means the record reached
// the log before the failure; Observe then applies the action anyway
// (the log may replay it on recovery) and surfaces the degradation. Any
// other error means "not logged", and Observe rejects the action.
type ActionLog interface {
	Append(a Action) (uint64, error)
	NextIndex() uint64
}

// ErrWALRecordLogged marks a WAL-append failure that happened after the
// record was written into the log. An Observe error wrapping it means
// the action WAS applied and logged — only its durability is in doubt.
// Test with errors.Is.
var ErrWALRecordLogged = durable.ErrRecordLogged

// bufferedLog is the optional ActionLog refinement Observe prefers: the
// append runs under the engine's exclusive lock (log order = apply
// order) while the policy's durability wait — an fsync under
// WALSyncAlways — runs via SyncAfterAppend once the lock is released, so
// a slow disk delays only the writer, never concurrent Recommend
// readers. *durable.WAL implements it.
type bufferedLog interface {
	ActionLog
	AppendBuffered(a Action) (uint64, error)
	SyncAfterAppend() error
}

// walBarrier is the optional ActionLog refinement Checkpoint uses to
// force every record below its high-water mark onto disk before the
// manifest recording that mark is installed.
type walBarrier interface{ Barrier() error }

var (
	_ ActionLog   = (*durable.WAL)(nil)
	_ bufferedLog = (*durable.WAL)(nil)
	_ walBarrier  = (*durable.WAL)(nil)
)

// WALSyncPolicy selects when WAL appends are fsynced; re-exported from
// internal/durable for OpenOptions.
type WALSyncPolicy = durable.SyncPolicy

// WAL fsync policies, re-exported from the engine package.
const (
	WALSyncInterval = durable.SyncInterval
	WALSyncAlways   = durable.SyncAlways
	WALSyncNone     = durable.SyncNone
)

// ParseWALSyncPolicy parses a flag spelling: "always", "interval",
// "none".
var ParseWALSyncPolicy = durable.ParseSyncPolicy

// trainLenUnknown marks a checkpoint whose training slice was a custom
// caller-supplied log that recovery cannot reconstruct from the dataset;
// OpenEngine then requires OpenOptions.Engine.Train.
const trainLenUnknown = -2

// OpenOptions configures OpenEngine. The zero value recovers with
// default engine options and WAL defaults, keeps two checkpoint
// generations, and runs no background checkpointer.
type OpenOptions struct {
	// Engine configures the recovered engine. Engine.WAL must be nil:
	// OpenEngine owns the WAL it opens in dir. Engine.Train, when set,
	// overrides the checkpoint's recorded training prefix — required when
	// the checkpoint was taken with a custom (non-prefix) training slice.
	Engine EngineOptions
	// Dataset bootstraps a fresh engine when dir holds no checkpoint yet.
	// Ignored when a checkpoint exists (the checkpointed dataset wins, so
	// recovered IDs stay consistent with the recovered graph).
	Dataset *Dataset
	// WALSegmentSize, WALSync, WALSyncEvery configure the opened WAL
	// (zero values take the durable defaults: 64 MiB, interval, 50 ms).
	WALSegmentSize int64
	WALSync        WALSyncPolicy
	WALSyncEvery   time.Duration
	// CheckpointEvery, when positive, starts a background checkpointer
	// that snapshots into dir on this period until Close.
	CheckpointEvery time.Duration
	// KeepCheckpoints is the retention depth for pruning (default 2 — the
	// newest checkpoint plus one fallback, so losing the newest manifest
	// still recovers).
	KeepCheckpoints int
	// ReadOnly recovers the engine without attaching a WAL: the directory
	// is only read, never appended to, and Observe/ObserveBatch apply
	// in-memory without logging. This is the replication follower's mode —
	// internal/replica ships the leader's segment bytes into the directory
	// itself and replays them through the engine, so an engine-owned WAL
	// would double-log every action. Incompatible with CheckpointEvery.
	ReadOnly bool
}

// RecoveryStats reports what OpenEngine recovered.
type RecoveryStats struct {
	// Recovered is true when any persisted state was found — a checkpoint
	// or at least one WAL record.
	Recovered bool
	// CheckpointSeq is the sequence number of the loaded checkpoint
	// (0 when none).
	CheckpointSeq uint64
	// CheckpointActions is how many live actions the checkpoint replayed.
	CheckpointActions int
	// ManifestsSkipped counts damaged manifests skipped while falling
	// back to an older checkpoint.
	ManifestsSkipped int
	// WALRecords is how many WAL-tail records were replayed.
	WALRecords int
	// WALTorn is true when the WAL ended in a torn record (crash
	// mid-append); WALTornBytes is how many trailing bytes were dropped.
	WALTorn      bool
	WALTornBytes int64
	// WALNextIndex is the log index one past the last record the recovery
	// applied — the position an appender would resume at, and the index a
	// replication follower resumes fetching from after a restart.
	WALNextIndex uint64
	// InvalidActions counts recovered actions Observe rejected (IDs
	// outside the recovered dataset) — nonzero only for damaged state
	// that still checksummed, which should not happen.
	InvalidActions int
	// Duration is the wall time of the whole recovery.
	Duration time.Duration
}

// OpenEngine opens (creating if needed) the durability directory dir and
// returns an engine whose state is exactly what an uninterrupted engine
// would hold after the persisted history: it loads the newest valid
// checkpoint (falling back past damaged ones), replays the checkpoint's
// live action suffix and then the WAL tail past the checkpoint's
// high-water mark through Observe, and only then attaches the WAL for
// appending — so recovery itself never re-logs what it replays. With
// OpenOptions.CheckpointEvery set, a background checkpointer snapshots
// periodically; call Close to stop it and sync the WAL.
func OpenEngine(dir string, opts OpenOptions) (*Engine, RecoveryStats, error) {
	var rs RecoveryStats
	start := time.Now()
	if opts.Engine.WAL != nil {
		return nil, rs, errors.New("repro: OpenEngine owns the WAL it opens; EngineOptions.WAL must be nil")
	}
	if opts.ReadOnly && opts.CheckpointEvery > 0 {
		return nil, rs, errors.New("repro: ReadOnly open cannot run a background checkpointer")
	}
	if opts.KeepCheckpoints <= 0 {
		opts.KeepCheckpoints = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rs, err
	}
	ck, skipped, err := durable.LoadNewestCheckpoint(dir)
	rs.ManifestsSkipped = skipped
	if err != nil {
		return nil, rs, err
	}
	var e *Engine
	walFrom := uint64(0)
	if ck != nil {
		if e, err = bootFromCheckpoint(ck, opts.Engine); err != nil {
			return nil, rs, err
		}
		rs.InvalidActions += replayActions(e, ck.Actions)
		// The newest observed timestamp can exceed the replayed suffix's
		// maximum (a late action on an old tweet is compacted away while
		// still anchoring the horizon), so restore the recorded anchor.
		restoreObservedNewest(e, Timestamp(ck.Manifest.ObservedNewest))
		walFrom = ck.Manifest.WALHWM
		rs.Recovered = true
		rs.CheckpointSeq = ck.Manifest.Seq
		rs.CheckpointActions = len(ck.Actions)
	} else {
		if opts.Dataset == nil {
			return nil, rs, fmt.Errorf("repro: no checkpoint in %s and no OpenOptions.Dataset to bootstrap from", dir)
		}
		if e, err = NewEngine(opts.Dataset, opts.Engine); err != nil {
			return nil, rs, err
		}
	}
	wrs, err := durable.ReplayWAL(dir, walFrom, func(idx uint64, a Action) error {
		if e.Observe(a.User, a.Tweet, a.Time) != nil {
			rs.InvalidActions++
		}
		return nil
	})
	if err != nil {
		return nil, rs, err
	}
	rs.WALRecords = wrs.Records
	rs.WALTorn = wrs.Torn
	rs.WALTornBytes = wrs.TornBytes
	rs.WALNextIndex = wrs.NextIndex
	if wrs.Records > 0 {
		rs.Recovered = true
	}
	if opts.ReadOnly {
		// No WAL attach: e.wal stays nil, so Observe applies without
		// logging and Checkpoint on this engine records no high-water mark.
		e.ckptDir = dir
		e.keepCkpts = opts.KeepCheckpoints
		rs.Duration = time.Since(start)
		if rs.Recovered {
			e.metrics.Counter("engine/recovery/count").Inc()
		}
		e.metrics.Counter("engine/recovery/checkpoint_actions").Add(uint64(rs.CheckpointActions))
		e.metrics.Counter("engine/recovery/wal_records").Add(uint64(rs.WALRecords))
		e.metrics.Counter("engine/recovery/invalid_actions").Add(uint64(rs.InvalidActions))
		e.metrics.Counter("engine/recovery/torn_bytes").Add(uint64(rs.WALTornBytes))
		e.metrics.Histogram("engine/recovery/duration_ns").ObserveDuration(rs.Duration)
		return e, rs, nil
	}
	w, err := durable.OpenWAL(dir, durable.WALOptions{
		SegmentSize: opts.WALSegmentSize,
		Sync:        opts.WALSync,
		SyncEvery:   opts.WALSyncEvery,
		Metrics:     e.metrics,
	})
	if err != nil {
		return nil, rs, err
	}
	// Belt and braces for recovery invariant 4: if the on-disk WAL lost
	// an un-fsynced tail the checkpoint already covers, its next index
	// sits below the checkpoint's mark, and appends there would hand out
	// indices the next recovery skips. Seal the log and resume at the
	// mark. (Checkpoint's pre-manifest Barrier makes this unreachable for
	// checkpoints this code writes; the guard covers older or foreign
	// directories.)
	if err := w.EnsureNextIndex(walFrom); err != nil {
		w.Close()
		return nil, rs, err
	}
	e.wal = w
	e.walBuf = w
	e.dwal = w
	e.ckptDir = dir
	e.keepCkpts = opts.KeepCheckpoints
	rs.Duration = time.Since(start)
	if rs.Recovered {
		e.metrics.Counter("engine/recovery/count").Inc()
	}
	e.metrics.Counter("engine/recovery/checkpoint_actions").Add(uint64(rs.CheckpointActions))
	e.metrics.Counter("engine/recovery/wal_records").Add(uint64(rs.WALRecords))
	e.metrics.Counter("engine/recovery/invalid_actions").Add(uint64(rs.InvalidActions))
	e.metrics.Counter("engine/recovery/torn_bytes").Add(uint64(rs.WALTornBytes))
	e.metrics.Histogram("engine/recovery/duration_ns").ObserveDuration(rs.Duration)
	if opts.CheckpointEvery > 0 {
		e.startCheckpointer(opts.CheckpointEvery)
	}
	return e, rs, nil
}

// bootFromCheckpoint builds an engine around a loaded checkpoint:
// profiles from the recorded training slice, graph installed directly
// (InitWithGraph) instead of rebuilt — the ~10^4× saving that justifies
// checkpointing the graph at all.
func bootFromCheckpoint(ck *durable.Checkpoint, eopts EngineOptions) (*Engine, error) {
	ds := ck.Dataset
	m := ck.Manifest
	if eopts.Train == nil {
		switch {
		case m.TrainLen == -1:
			// Whole log: leave Train nil, newEngineCore defaults to it.
		case m.TrainLen >= 0 && m.TrainLen <= int64(len(ds.Actions)):
			eopts.Train = ds.Actions[:m.TrainLen]
		default:
			return nil, fmt.Errorf("repro: checkpoint seq %d records a training slice recovery cannot reconstruct (TrainLen %d); supply OpenOptions.Engine.Train", m.Seq, m.TrainLen)
		}
	}
	e, err := newEngineCore(ds, eopts)
	if err != nil {
		return nil, err
	}
	e.rec.InitWithGraph(e.ctx, ck.Graph)
	// Same post-build step NewEngine runs: arm the community pre-filter
	// on the recovered graph so refreshes prune from the first pass.
	e.detectClusters(ck.Graph)
	e.maybeStartRefresher()
	return e, nil
}

// replayActions re-observes a recovered action sequence. A rejected
// action (IDs outside the recovered dataset) is counted, not fatal: it
// can only come from damage that slipped every checksum, and losing one
// action beats refusing to serve.
func replayActions(e *Engine, actions []Action) int {
	invalid := 0
	for _, a := range actions {
		if e.Observe(a.User, a.Tweet, a.Time) != nil {
			invalid++
		}
	}
	return invalid
}

// restoreObservedNewest advances the engine's replay-horizon anchor to
// the checkpoint's recorded value.
func restoreObservedNewest(e *Engine, newest Timestamp) {
	e.mu.Lock()
	if newest > e.observedNewest {
		e.observedNewest = newest
	}
	e.mu.Unlock()
}

// CheckpointStats reports one (*Engine).Checkpoint call.
type CheckpointStats struct {
	// Seq is the sequence number the checkpoint was written under.
	Seq uint64
	// Bytes is the total size of the written data files.
	Bytes int64
	// Actions is how many live observed actions were persisted.
	Actions int
	// WALHWM is the first WAL index the checkpoint does not cover.
	WALHWM uint64
	// Pruned is how many older checkpoints retention deleted.
	Pruned int
	// TruncatedSegments is how many WAL segments became redundant and
	// were removed.
	TruncatedSegments int
	// CaptureHold is how long the read lock was held to capture state —
	// the serving-visible cost of the checkpoint (readers keep flowing;
	// only Observe waits, same as any read).
	CaptureHold time.Duration
	// Duration is the wall time including all file IO.
	Duration time.Duration
}

// Checkpoint atomically snapshots the engine into dir: the dataset, the
// current similarity graph, and the live observed-action suffix, plus a
// manifest recording the WAL high-water mark the snapshot covers. The
// capture runs under the read lock — it piggybacks on the same contract
// as RefreshGraphStats's build phase, so recommendation reads keep flowing
// and only writers briefly wait — and every byte of IO happens outside
// the engine locks. After the write it prunes old checkpoints (keeping
// the engine's retention depth, default 2) and truncates WAL segments
// no surviving checkpoint needs. Concurrent Checkpoint calls serialize.
func (e *Engine) Checkpoint(dir string) (CheckpointStats, error) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	var st CheckpointStats
	start := time.Now()

	e.mu.RLock()
	capture := time.Now()
	g := e.rec.Graph()
	var hwm uint64
	if e.wal != nil {
		// Writers are excluded and Observe logs before it applies, so the
		// next append index equals the count of applied actions: replaying
		// the WAL from here reproduces exactly what this capture misses.
		hwm = e.wal.NextIndex()
	}
	newest := e.observedNewest
	cutoff := newest - e.opts.MaxAge
	live := make([]Action, 0, len(e.observed))
	for _, a := range e.observed {
		// Same liveness rule as compactObservedLocked: an action whose
		// tweet aged out of the freshness horizon cannot influence a
		// recovered recommender, so it need not be persisted.
		if e.ds.Tweets[a.Tweet].Time >= cutoff {
			live = append(live, a)
		}
	}
	trainLen := e.manifestTrainLen()
	st.CaptureHold = time.Since(capture)
	e.mu.RUnlock()

	// Durability barrier: every record below hwm must be on disk before a
	// manifest recording WALHWM=hwm becomes durable. Without it, buffered
	// (SyncInterval/SyncNone) records below the mark can die in a crash;
	// the reopened WAL would then hand post-restart actions indices below
	// hwm, and the next recovery — replaying only from hwm — would drop
	// them silently, even fsynced ones.
	if b, ok := e.wal.(walBarrier); ok {
		if err := b.Barrier(); err != nil {
			e.metrics.Counter("engine/checkpoint/errors").Inc()
			return st, fmt.Errorf("repro: WAL barrier before checkpoint: %w", err)
		}
	}

	res, err := durable.WriteCheckpoint(dir, durable.CheckpointMeta{
		WALHWM:         hwm,
		ObservedNewest: int64(newest),
		TrainLen:       trainLen,
	}, e.ds, g, live)
	if err != nil {
		e.metrics.Counter("engine/checkpoint/errors").Inc()
		return st, err
	}
	keep := e.keepCkpts
	if keep <= 0 {
		keep = 2
	}
	pruned, keptHWM, err := durable.PruneCheckpoints(dir, keep)
	if err != nil {
		e.metrics.Counter("engine/checkpoint/errors").Inc()
		return st, err
	}
	if e.retainFloor != nil {
		// A replication follower that has not acknowledged past `floor`
		// still needs every segment from there on; truncating them would
		// force it through a full re-bootstrap. Recovery only ever replays
		// from a kept checkpoint's mark, so holding extra segments below
		// keptHWM is pure retention, never a correctness risk.
		if floor, ok := e.retainFloor(); ok && floor < keptHWM {
			keptHWM = floor
		}
	}
	if e.dwal != nil && keptHWM > 0 {
		// Truncate only below the oldest *kept* checkpoint's mark: the
		// fallback generation must keep the WAL tail it would replay.
		n, err := e.dwal.TruncateBefore(keptHWM)
		st.TruncatedSegments = n
		if err != nil {
			e.metrics.Counter("engine/checkpoint/errors").Inc()
			return st, err
		}
	}
	st.Seq = res.Seq
	st.Bytes = res.Bytes
	st.Actions = len(live)
	st.WALHWM = hwm
	st.Pruned = pruned
	st.Duration = time.Since(start)
	e.metrics.Counter("engine/checkpoint/count").Inc()
	e.metrics.Counter("engine/checkpoint/bytes").Add(uint64(res.Bytes))
	e.metrics.Counter("engine/checkpoint/actions").Add(uint64(len(live)))
	e.metrics.Counter("engine/checkpoint/pruned").Add(uint64(pruned))
	e.metrics.Counter("engine/checkpoint/truncated_segments").Add(uint64(st.TruncatedSegments))
	e.metrics.Histogram("engine/checkpoint/duration_ns").ObserveDuration(st.Duration)
	e.metrics.Histogram("engine/checkpoint/capture_hold_ns").ObserveDuration(st.CaptureHold)
	return st, nil
}

// manifestTrainLen encodes the engine's training slice for a manifest:
// -1 for the dataset's whole log, a length when Train is a prefix of it
// (the common held-out split), trainLenUnknown for a custom slice
// recovery cannot reconstruct from the dataset alone.
func (e *Engine) manifestTrainLen() int64 {
	t := e.opts.Train
	switch {
	case t == nil:
		return -1
	case len(t) == 0:
		return 0
	case len(e.ds.Actions) > 0 && len(t) <= len(e.ds.Actions) && &t[0] == &e.ds.Actions[0]:
		return int64(len(t))
	default:
		return trainLenUnknown
	}
}

// WALNextIndex reports the engine-owned log's next append index — the
// value a replication leader advertises as its high-water mark. 0 for
// engines without an attached WAL.
func (e *Engine) WALNextIndex() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.NextIndex()
}

// SetWALRetainFloor installs (or, with nil, removes) a truncation floor
// consulted by Checkpoint: when fn returns (floor, true), WAL segments
// at or above floor survive truncation even if no kept checkpoint needs
// them. The replication leader wires this to the minimum index its
// live followers have acknowledged, so a lagging follower's unfetched
// tail is never deleted out from under it. fn is called with the
// checkpoint lock held and must not call back into Checkpoint.
func (e *Engine) SetWALRetainFloor(fn func() (uint64, bool)) {
	e.ckptMu.Lock()
	e.retainFloor = fn
	e.ckptMu.Unlock()
}

// startCheckpointer runs Checkpoint on a fixed period until Close.
func (e *Engine) startCheckpointer(every time.Duration) {
	e.ckptStop = make(chan struct{})
	e.ckptDone = make(chan struct{})
	go func() {
		defer close(e.ckptDone)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-e.ckptStop:
				return
			case <-tick.C:
				// Best-effort: a failed snapshot is counted by
				// engine/checkpoint/errors and retried next period.
				e.Checkpoint(e.ckptDir)
			}
		}
	}()
}

// Close stops the background refresher and checkpointer (waiting for an
// in-flight refresh or snapshot to finish) and flushes, fsyncs, and
// closes the engine-owned WAL. The engine itself stays readable; only
// the background work stops. Safe to call more than once, and a no-op
// for engines without durability or a background refresher.
func (e *Engine) Close() error {
	var err error
	e.closeOnce.Do(func() {
		if e.refreshStop != nil {
			close(e.refreshStop)
			<-e.refreshDone
		}
		if e.ckptStop != nil {
			close(e.ckptStop)
			<-e.ckptDone
		}
		if e.dwal != nil {
			err = e.dwal.Close()
		}
	})
	return err
}
