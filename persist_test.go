package repro

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/gen"
)

// persistFixture is the shared scenario for the recovery tests: a
// generated dataset, a temporal train/test split, and engine options
// with a training prefix and a freshness horizon wide enough that no
// streamed action ever expires — so replay equivalence is exhaustive,
// not merely equivalence up to the horizon.
type persistFixture struct {
	ds   *Dataset
	test []Action
	opts EngineOptions
	now  Timestamp
}

func newPersistFixture(t *testing.T) *persistFixture {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(60, 7))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(test) < 45 {
		t.Fatalf("fixture too small: %d test actions, need >= 45", len(test))
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.MaxAge = 1 << 40
	return &persistFixture{
		ds:   ds,
		test: test,
		now:  test[len(test)-1].Time + Hour,
		opts: opts,
	}
}

// feed streams test actions [from, to) into an engine.
func (fx *persistFixture) feed(t *testing.T, e *Engine, from, to int) {
	t.Helper()
	for _, a := range fx.test[from:to] {
		if err := e.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
}

// recommendAll snapshots every user's top-k recommendations.
func recommendAll(e *Engine, k int, now Timestamp) [][]Recommendation {
	out := make([][]Recommendation, e.Dataset().NumUsers())
	for u := range out {
		out[u] = e.Recommend(UserID(u), k, now)
	}
	return out
}

// assertSameRecommendations requires bit-identical output: same tweets,
// same float64 scores, for every user.
func assertSameRecommendations(t *testing.T, want, got [][]Recommendation, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d users", label, len(want), len(got))
	}
	served := 0
	for u := range want {
		if len(want[u]) != len(got[u]) {
			t.Fatalf("%s: user %d served %d vs %d recommendations", label, u, len(want[u]), len(got[u]))
		}
		for i := range want[u] {
			if want[u][i] != got[u][i] {
				t.Fatalf("%s: user %d rank %d: live %+v, recovered %+v", label, u, i, want[u][i], got[u][i])
			}
		}
		served += len(want[u])
	}
	if served == 0 {
		t.Fatalf("%s: vacuous comparison, no user was served anything", label)
	}
}

// newestFile returns the lexically last file in dir matching the prefix
// and suffix (segment and manifest names sort by index/sequence).
func newestFile(t *testing.T, dir, prefix, suffix string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range ents {
		n := e.Name()
		if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) && n > newest {
			newest = n
		}
	}
	if newest == "" {
		t.Fatalf("no %s*%s in %s", prefix, suffix, dir)
	}
	return filepath.Join(dir, newest)
}

// TestRecoverMatchesLiveEngine is the subsystem's headline guarantee: an
// engine recovered from checkpoint + WAL tail serves bit-identical
// recommendations to an engine that never restarted — including when
// the checkpoint was taken after a RefreshGraphStats, so the snapshot carries
// a refreshed graph rather than the initial one, and including a further
// refresh after recovery.
func TestRecoverMatchesLiveEngine(t *testing.T) {
	fx := newPersistFixture(t)
	live, err := NewEngine(fx.ds, fx.opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	per, rs, err := OpenEngine(dir, OpenOptions{Engine: fx.opts, Dataset: fx.ds})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Recovered {
		t.Fatalf("fresh directory reported recovery: %+v", rs)
	}

	// Stream half, refresh both (the RefreshGraphStats boundary), snapshot the
	// persistent engine, stream the rest, then "crash" — only the WAL
	// flush of Close survives, the process state is discarded.
	mid := len(fx.test) / 2
	fx.feed(t, live, 0, mid)
	fx.feed(t, per, 0, mid)
	live.RefreshGraphStats(UpdateWeights)
	per.RefreshGraphStats(UpdateWeights)
	if _, err := per.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	fx.feed(t, live, mid, len(fx.test))
	fx.feed(t, per, mid, len(fx.test))
	if err := per.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover with no Train: the manifest's recorded prefix length must
	// reconstruct the training slice from the checkpointed dataset.
	ropts := fx.opts
	ropts.Train = nil
	rec, rs2, err := OpenEngine(dir, OpenOptions{Engine: ropts})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rs2.Recovered || rs2.CheckpointSeq == 0 {
		t.Fatalf("no recovery happened: %+v", rs2)
	}
	if rs2.CheckpointActions != mid {
		t.Errorf("checkpoint replayed %d actions, want %d", rs2.CheckpointActions, mid)
	}
	if rs2.WALRecords != len(fx.test)-mid {
		t.Errorf("WAL replayed %d records, want %d", rs2.WALRecords, len(fx.test)-mid)
	}
	if rs2.InvalidActions != 0 {
		t.Errorf("%d recovered actions were invalid", rs2.InvalidActions)
	}

	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after recovery")

	// A refresh after recovery must also agree: the recovered profile
	// store saw the same observation sequence, so the rebuilt graphs are
	// identical too.
	live.RefreshGraphStats(UpdateFromScratch)
	rec.RefreshGraphStats(UpdateFromScratch)
	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after post-recovery refresh")
}

// TestRecoverMatchesLiveEngineIncremental extends the recovery guarantee
// to the dirty-set-driven strategy: the dirty set is NOT checkpointed —
// recovery reconstructs it by replaying the checkpoint suffix and WAL
// tail through Observe, which re-marks exactly the users the live engine
// marked (no drain happened between checkpoint and crash, so the sets
// are equal, not merely a superset). An incremental refresh on both
// sides must therefore install identical graphs and serve bit-identical
// recommendations.
func TestRecoverMatchesLiveEngineIncremental(t *testing.T) {
	fx := newPersistFixture(t)
	live, err := NewEngine(fx.ds, fx.opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	per, _, err := OpenEngine(dir, OpenOptions{Engine: fx.opts, Dataset: fx.ds})
	if err != nil {
		t.Fatal(err)
	}

	// Stream half, checkpoint, stream the rest, crash. No refresh before
	// the crash: every streamed action's dirty mark is still pending.
	mid := len(fx.test) / 2
	fx.feed(t, live, 0, mid)
	fx.feed(t, per, 0, mid)
	if _, err := per.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	fx.feed(t, live, mid, len(fx.test))
	fx.feed(t, per, mid, len(fx.test))
	if err := per.Close(); err != nil {
		t.Fatal(err)
	}

	ropts := fx.opts
	ropts.Train = nil
	rec, rs, err := OpenEngine(dir, OpenOptions{Engine: ropts})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rs.Recovered {
		t.Fatalf("no recovery happened: %+v", rs)
	}
	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after recovery")

	// The incremental refresh drains the reconstructed dirty set; both
	// sides must re-score the same users over the same previous graph.
	stLive := live.RefreshGraphStats(UpdateIncremental)
	stRec := rec.RefreshGraphStats(UpdateIncremental)
	if stLive.DirtyUsers == 0 {
		t.Fatal("live engine had no dirty users after streaming")
	}
	if stRec.DirtyUsers != stLive.DirtyUsers {
		t.Errorf("recovered dirty set %d users, live %d", stRec.DirtyUsers, stLive.DirtyUsers)
	}
	if stRec.Edges != stLive.Edges {
		t.Errorf("recovered graph %d edges, live %d", stRec.Edges, stLive.Edges)
	}
	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after incremental refresh")

	// A second round of streaming and refreshing stays in lockstep.
	if err := live.Observe(fx.test[0].User, fx.test[0].Tweet, fx.now); err != nil {
		t.Fatal(err)
	}
	if err := rec.Observe(fx.test[0].User, fx.test[0].Tweet, fx.now); err != nil {
		t.Fatal(err)
	}
	live.RefreshGraphStats(UpdateIncremental)
	rec.RefreshGraphStats(UpdateIncremental)
	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after second incremental refresh")
}

// TestRecoverTornWALTail simulates a crash mid-append: the newest
// segment loses its last record to a torn tail. Recovery must salvage
// every whole record, report the tear, and converge back to the live
// engine once the lost action is re-observed.
func TestRecoverTornWALTail(t *testing.T) {
	fx := newPersistFixture(t)
	const n = 40
	dir := t.TempDir()
	per, _, err := OpenEngine(dir, OpenOptions{Engine: fx.opts, Dataset: fx.ds, WALSync: WALSyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fx.feed(t, per, 0, n)
	// Crash: no Close. SyncAlways means every record is on disk; tear
	// into the last one by hand.
	seg := newestFile(t, dir, "wal-", ".seg")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-13); err != nil {
		t.Fatal(err)
	}

	// No checkpoint was ever taken, so this is WAL-only recovery: the
	// bootstrap dataset is required again.
	rec, rs, err := OpenEngine(dir, OpenOptions{Engine: fx.opts, Dataset: fx.ds})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rs.WALTorn || rs.WALTornBytes == 0 {
		t.Fatalf("tear not reported: %+v", rs)
	}
	if rs.WALRecords != n-1 {
		t.Fatalf("salvaged %d records, want %d", rs.WALRecords, n-1)
	}

	live, err := NewEngine(fx.ds, fx.opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.feed(t, live, 0, n-1)
	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after torn-tail recovery")

	// The client retries the lost action; both engines converge.
	fx.feed(t, live, n-1, n)
	fx.feed(t, rec, n-1, n)
	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after re-observing the lost action")
}

// TestRecoverSurvivesManifestDamage covers the checkpoint fault
// injections: flipping bytes in the newest manifest and deleting it
// outright. Both must fall back to the previous checkpoint generation,
// whose WAL tail is guaranteed to survive (truncation stops below the
// oldest kept checkpoint's high-water mark), so recovery still converges
// to the live engine's exact state.
func TestRecoverSurvivesManifestDamage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, manifest string)
		// skipped is the expected ManifestsSkipped: a flipped manifest is
		// seen and rejected; a deleted one is simply absent.
		skipped int
	}{
		{"flipped-bytes", func(t *testing.T, manifest string) {
			raw, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x40
			if err := os.WriteFile(manifest, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"deleted", func(t *testing.T, manifest string) {
			if err := os.Remove(manifest); err != nil {
				t.Fatal(err)
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newPersistFixture(t)
			dir := t.TempDir()
			per, _, err := OpenEngine(dir, OpenOptions{Engine: fx.opts, Dataset: fx.ds})
			if err != nil {
				t.Fatal(err)
			}
			fx.feed(t, per, 0, 10)
			if _, err := per.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			fx.feed(t, per, 10, 20)
			if _, err := per.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
			fx.feed(t, per, 20, 30)
			if err := per.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, newestFile(t, dir, "ckpt-", ".manifest"))

			rec, rs, err := OpenEngine(dir, OpenOptions{Engine: fx.opts})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rs.CheckpointSeq != 1 {
				t.Fatalf("recovered from checkpoint seq %d, want fallback to 1 (%+v)", rs.CheckpointSeq, rs)
			}
			if rs.ManifestsSkipped != tc.skipped {
				t.Errorf("skipped %d manifests, want %d", rs.ManifestsSkipped, tc.skipped)
			}
			if got, want := rs.CheckpointActions+rs.WALRecords, 30; got != want {
				t.Errorf("recovered %d actions total, want %d", got, want)
			}

			live, err := NewEngine(fx.ds, fx.opts)
			if err != nil {
				t.Fatal(err)
			}
			fx.feed(t, live, 0, 30)
			assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after manifest damage")
		})
	}
}

// TestCheckpointTruncatesWAL pins the retention interaction with tiny
// segments: a lone checkpoint makes every segment below its high-water
// mark redundant; once two generations exist, truncation is held back
// by the *oldest* kept mark (the fallback still needs its tail), and
// only pruning the oldest generation releases its segments.
func TestCheckpointTruncatesWAL(t *testing.T) {
	fx := newPersistFixture(t)
	dir := t.TempDir()
	// 128-byte segments: header 16 + 25 per record rotates every 5
	// records, so indices land on segment boundaries 0,5,10,...
	per, _, err := OpenEngine(dir, OpenOptions{Engine: fx.opts, Dataset: fx.ds, WALSegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	fx.feed(t, per, 0, 10)
	st1, err := per.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st1.WALHWM != 10 || st1.Actions != 10 {
		t.Fatalf("first checkpoint: %+v, want HWM 10 and 10 actions", st1)
	}
	// The only generation covers everything below index 10: segments
	// [0,5) and [5,10) are redundant.
	if st1.TruncatedSegments != 2 {
		t.Fatalf("first checkpoint truncated %d segments, want 2 (%+v)", st1.TruncatedSegments, st1)
	}
	fx.feed(t, per, 10, 20)
	st2, err := per.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Now two generations survive (HWM 10 and 20): the fallback's tail
	// from index 10 must stay, so nothing new is deletable.
	if st2.TruncatedSegments != 0 {
		t.Fatalf("second checkpoint truncated %d segments, want 0 (%+v)", st2.TruncatedSegments, st2)
	}
	fx.feed(t, per, 20, 30)
	st3, err := per.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The third generation prunes the first: survivors' oldest mark moves
	// to 20, releasing segments [10,15) and [15,20).
	if st3.Pruned != 1 || st3.TruncatedSegments != 2 {
		t.Fatalf("third checkpoint pruned %d / truncated %d, want 1 / 2 (%+v)", st3.Pruned, st3.TruncatedSegments, st3)
	}
	fx.feed(t, per, 30, 40)
	if err := per.Close(); err != nil {
		t.Fatal(err)
	}

	rec, rs, err := OpenEngine(dir, OpenOptions{Engine: fx.opts})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got, want := rs.CheckpointActions+rs.WALRecords, 40; got != want {
		t.Fatalf("recovered %d actions after truncation, want %d (%+v)", got, want, rs)
	}
	live, err := NewEngine(fx.ds, fx.opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.feed(t, live, 0, 40)
	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after truncating recovery")
}

// TestBackgroundCheckpointer verifies OpenOptions.CheckpointEvery
// produces checkpoints without any explicit call, and that Close stops
// the loop.
func TestBackgroundCheckpointer(t *testing.T) {
	fx := newPersistFixture(t)
	dir := t.TempDir()
	per, _, err := OpenEngine(dir, OpenOptions{
		Engine:          fx.opts,
		Dataset:         fx.ds,
		CheckpointEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.feed(t, per, 0, 10)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := per.Metrics().Counters["engine/checkpoint/count"]; n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer wrote nothing within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := per.Close(); err != nil {
		t.Fatal(err)
	}
	if err := per.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	rec, rs, err := OpenEngine(dir, OpenOptions{Engine: fx.opts})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rs.Recovered {
		t.Fatalf("background checkpoints not recoverable: %+v", rs)
	}
}

// TestOpenEngineFreshRequiresDataset pins the bootstrap contract.
func TestOpenEngineFreshRequiresDataset(t *testing.T) {
	if _, _, err := OpenEngine(t.TempDir(), OpenOptions{}); err == nil {
		t.Fatal("OpenEngine on an empty directory with no dataset must fail")
	}
	fx := newPersistFixture(t)
	opts := fx.opts
	opts.WAL = &countingLog{}
	if _, _, err := OpenEngine(t.TempDir(), OpenOptions{Engine: opts, Dataset: fx.ds}); err == nil {
		t.Fatal("OpenEngine must reject a caller-supplied EngineOptions.WAL")
	}
}

// countingLog is a minimal ActionLog for hook tests.
type countingLog struct {
	n    uint64
	fail bool
}

func (l *countingLog) Append(a Action) (uint64, error) {
	if l.fail {
		return 0, os.ErrPermission
	}
	idx := l.n
	l.n++
	return idx, nil
}

func (l *countingLog) NextIndex() uint64 { return l.n }

// TestCheckpointBarriersWAL pins the manifest/WAL ordering invariant: by
// the time a manifest recording WALHWM is durably installed, every
// record below that mark must be present in the on-disk WAL — even
// under sync policies that buffer appends in memory. Without the
// barrier, SyncNone leaves the records in the bufio buffer and this
// replay (the same read recovery does) ends below the mark.
func TestCheckpointBarriersWAL(t *testing.T) {
	fx := newPersistFixture(t)
	dir := t.TempDir()
	e, _, err := OpenEngine(dir, OpenOptions{Engine: fx.opts, Dataset: fx.ds, WALSync: WALSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 20
	fx.feed(t, e, 0, n)
	st, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALHWM != n {
		t.Fatalf("checkpoint HWM = %d, want %d", st.WALHWM, n)
	}
	rs, err := durable.ReplayWAL(dir, 0, func(uint64, Action) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rs.NextIndex < st.WALHWM {
		t.Fatalf("on-disk WAL ends at %d, below the durable manifest's HWM %d", rs.NextIndex, st.WALHWM)
	}
}

// TestOpenEngineWALBehindCheckpoint covers the other half of the HWM
// partition guard: when the on-disk WAL ends below the newest
// checkpoint's mark (a crash took an un-fsynced tail the checkpoint
// already covers), recovery must not hand post-restart actions indices
// below that mark — they would be invisible to the next recovery.
func TestOpenEngineWALBehindCheckpoint(t *testing.T) {
	fx := newPersistFixture(t)
	dir := t.TempDir()
	e, _, err := OpenEngine(dir, OpenOptions{Engine: fx.opts, Dataset: fx.ds})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	fx.feed(t, e, 0, n)
	if _, err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the page-cache loss: drop the last 5 records (25 bytes
	// each: 8-byte header + 17-byte payload) from the newest segment, so
	// the on-disk log ends at index 15, below the checkpoint's HWM of 20.
	seg := newestFile(t, dir, "wal-", ".seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5*25); err != nil {
		t.Fatal(err)
	}

	ropts := fx.opts
	ropts.Train = nil
	per, rs, err := OpenEngine(dir, OpenOptions{Engine: ropts})
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALRecords != 0 {
		t.Fatalf("replayed %d WAL records below the checkpoint mark", rs.WALRecords)
	}
	// The lost tail was covered by the checkpoint, so the recovered state
	// is complete; new actions must land at or above the mark.
	fx.feed(t, per, n, n+3)
	if err := per.Close(); err != nil {
		t.Fatal(err)
	}

	rec, rs2, err := OpenEngine(dir, OpenOptions{Engine: ropts})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rs2.WALRecords != 3 {
		t.Fatalf("second recovery replayed %d WAL records, want 3 (post-restart actions lost below the mark)", rs2.WALRecords)
	}
	live, err := NewEngine(fx.ds, fx.opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.feed(t, live, 0, n+3)
	assertSameRecommendations(t, recommendAll(live, 10, fx.now), recommendAll(rec, 10, fx.now), "after behind-the-mark recovery")
}

// TestObserveWALHook pins WAL-before-apply: every accepted action is
// appended exactly once, and an append failure leaves the engine state
// untouched.
func TestObserveWALHook(t *testing.T) {
	fx := newPersistFixture(t)
	opts := fx.opts
	log := &countingLog{}
	opts.WAL = log
	e, err := NewEngine(fx.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.feed(t, e, 0, 5)
	if log.n != 5 {
		t.Fatalf("WAL saw %d appends for 5 observes", log.n)
	}
	// An out-of-range action must be rejected before it reaches the log.
	if err := e.Observe(UserID(1<<30), fx.test[5].Tweet, fx.test[5].Time); err == nil {
		t.Fatal("invalid user accepted")
	}
	if log.n != 5 {
		t.Fatalf("rejected action reached the WAL (%d appends)", log.n)
	}
	// A failing append must block the apply.
	log.fail = true
	if err := e.Observe(fx.test[5].User, fx.test[5].Tweet, fx.test[5].Time); err == nil {
		t.Fatal("Observe succeeded although the WAL append failed")
	}
	if got := len(e.ObservedActions()); got != 5 {
		t.Fatalf("failed WAL append still mutated state: %d observed actions", got)
	}
}

// degradedLog is an ActionLog whose appends report the record as logged
// but not durable — the shape of a WAL whose rotation or fsync failed
// after the record was written.
type degradedLog struct {
	countingLog
	degrade bool
}

func (l *degradedLog) Append(a Action) (uint64, error) {
	idx, err := l.countingLog.Append(a)
	if err != nil || !l.degrade {
		return idx, err
	}
	return idx, fmt.Errorf("%w: injected fault", ErrWALRecordLogged)
}

// TestObserveAppliesLoggedDegradedAction pins log-then-apply: when the
// log reports the record written but degraded, Observe must apply the
// action anyway (recovery may replay the logged record, and live state
// must match what replay reconstructs) while surfacing an error that
// wraps ErrWALRecordLogged.
func TestObserveAppliesLoggedDegradedAction(t *testing.T) {
	fx := newPersistFixture(t)
	opts := fx.opts
	log := &degradedLog{}
	opts.WAL = log
	e, err := NewEngine(fx.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.feed(t, e, 0, 3)
	log.degrade = true
	a := fx.test[3]
	err = e.Observe(a.User, a.Tweet, a.Time)
	if !errors.Is(err, ErrWALRecordLogged) {
		t.Fatalf("Observe = %v, want an error wrapping ErrWALRecordLogged", err)
	}
	if got := len(e.ObservedActions()); got != 4 {
		t.Fatalf("logged-but-degraded action was not applied: %d observed actions", got)
	}
	if got := e.Metrics().Counter("engine/wal/degraded_appends"); got != 1 {
		t.Fatalf("engine/wal/degraded_appends = %d, want 1", got)
	}
}
