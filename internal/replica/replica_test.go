package replica_test

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/replica"
	"repro/internal/server"
)

// leaderFix is a durable leader engine, its replication endpoints on an
// httptest server, and the temporally split dataset that feeds it. The
// engine pointer is swappable (restart tests) and the advertised next
// index is overridable (torn-tail and divergence tests).
type leaderFix struct {
	dir         string
	ds          *repro.Dataset
	train, test []repro.Action
	eng         atomic.Pointer[repro.Engine]
	ldr         *replica.Leader
	hs          *httptest.Server
	override    atomic.Uint64
	clockSkew   atomic.Int64 // nanoseconds added to the leader's clock
	eopts       repro.EngineOptions
	oopts       repro.OpenOptions
}

func newLeaderFix(t *testing.T, users int, seed uint64, segSize int64) *leaderFix {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(users, seed))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	fx := &leaderFix{dir: t.TempDir(), ds: ds, train: train, test: test}
	fx.eopts = repro.DefaultEngineOptions()
	fx.eopts.Train = train
	fx.eopts.MaxAge = 1 << 40
	// A short group-commit period keeps appended bytes reaching the
	// segment file (and thus the replication fetch path) quickly.
	fx.oopts = repro.OpenOptions{
		Engine:         fx.eopts,
		Dataset:        ds,
		WALSegmentSize: segSize,
		WALSync:        repro.WALSyncInterval,
		WALSyncEvery:   10 * time.Millisecond,
	}
	eng, _, err := repro.OpenEngine(fx.dir, fx.oopts)
	if err != nil {
		t.Fatal(err)
	}
	fx.eng.Store(eng)
	if _, err := eng.Checkpoint(fx.dir); err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	fx.ldr = replica.NewLeader(fx.dir, fx.next, replica.LeaderOptions{
		MaxWait: 5 * time.Second,
		Clock:   func() time.Time { return base.Add(time.Duration(fx.clockSkew.Load())) },
	})
	mux := http.NewServeMux()
	mux.Handle("/wal/", fx.ldr.Handler())
	fx.hs = httptest.NewServer(mux)
	t.Cleanup(func() {
		fx.hs.Close()
		fx.eng.Load().Close()
	})
	return fx
}

func (fx *leaderFix) next() uint64 {
	if o := fx.override.Load(); o != 0 {
		return o
	}
	return fx.eng.Load().WALNextIndex()
}

// observeRange observes test actions [from, to) on the leader; the
// group-commit ticker flushes them to the fetchable segment file.
func (fx *leaderFix) observeRange(t *testing.T, from, to int) {
	t.Helper()
	eng := fx.eng.Load()
	for _, a := range fx.test[from:to] {
		if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
}

func (fx *leaderFix) openFollower(t *testing.T, dir string) *replica.Follower {
	t.Helper()
	f, err := replica.Open(fx.hs.URL, replica.FollowerOptions{
		Dir:      dir,
		Engine:   followerEngineOpts(),
		Poll:     50 * time.Millisecond,
		RetryMin: 5 * time.Millisecond,
		RetryMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// followerEngineOpts mirrors the leader's engine configuration except
// Train, which recovery reconstructs from the checkpoint's TrainLen.
func followerEngineOpts() repro.EngineOptions {
	eopts := repro.DefaultEngineOptions()
	eopts.MaxAge = 1 << 40
	return eopts
}

// assertSameRecommendations requires bit-identical Recommend output
// between two engines for every user.
func assertSameRecommendations(t *testing.T, a, b *repro.Engine, users int, now repro.Timestamp) {
	t.Helper()
	for u := 0; u < users; u++ {
		ra := a.Recommend(repro.UserID(u), 10, now)
		rb := b.Recommend(repro.UserID(u), 10, now)
		if len(ra) != len(rb) {
			t.Fatalf("user %d: leader %d recs, follower %d", u, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Tweet != rb[i].Tweet || ra[i].Score != rb[i].Score {
				t.Fatalf("user %d rank %d: leader %+v, follower %+v", u, i, ra[i], rb[i])
			}
		}
	}
}

func counterValue(e *repro.Engine, name string) uint64 {
	return e.MetricsRegistry().Snapshot().Counters[name]
}

func gaugeValue(e *repro.Engine, name string) (int64, bool) {
	v, ok := e.MetricsRegistry().Snapshot().Gauges[name]
	return v, ok
}

func TestFollowerConvergesBitIdentical(t *testing.T) {
	fx := newLeaderFix(t, 120, 7, 0)
	half := len(fx.test) / 2
	fx.observeRange(t, 0, half)

	f := fx.openFollower(t, t.TempDir())
	defer f.Close()
	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Keep feeding while the follower tails live.
	fx.observeRange(t, half, len(fx.test))
	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := f.AppliedIndex(), fx.eng.Load().WALNextIndex(); got != want {
		t.Fatalf("applied %d, leader next %d", got, want)
	}
	now := fx.test[len(fx.test)-1].Time + 1
	assertSameRecommendations(t, fx.eng.Load(), f.Engine(), fx.ds.NumUsers(), now)

	// The staleness gauges must be live in the follower's registry.
	if lag, ok := gaugeValue(f.Engine(), "replica/follower/lag"); !ok || lag != 0 {
		t.Fatalf("replica/follower/lag = %d (present %v), want 0 present", lag, ok)
	}
	if _, ok := gaugeValue(f.Engine(), "replica/follower/applied_index"); !ok {
		t.Fatal("replica/follower/applied_index gauge missing")
	}
}

func TestFollowerRestartResumesFromAppliedIndex(t *testing.T) {
	fx := newLeaderFix(t, 120, 8, 0)
	half := len(fx.test) / 2
	fx.observeRange(t, 0, half)

	fdir := t.TempDir()
	f := fx.openFollower(t, fdir)
	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	appliedBefore := f.AppliedIndex()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Leader advances while the follower is down.
	fx.observeRange(t, half, len(fx.test))
	newRecords := uint64(len(fx.test) - half)

	f2 := fx.openFollower(t, fdir)
	defer f2.Close()
	if got := f2.AppliedIndex(); got != appliedBefore {
		t.Fatalf("restart recovered applied %d, want %d (local replay)", got, appliedBefore)
	}
	if err := f2.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Resume means exactly the new records were fetched and applied —
	// a re-bootstrap or re-apply would inflate this counter.
	if got := counterValue(f2.Engine(), "replica/follower/records_applied"); got != newRecords {
		t.Fatalf("applied %d records after restart, want %d", got, newRecords)
	}
	if got := counterValue(f2.Engine(), "replica/follower/rebootstraps"); got != 0 {
		t.Fatalf("restart re-bootstrapped %d times, want 0", got)
	}
	now := fx.test[len(fx.test)-1].Time + 1
	assertSameRecommendations(t, fx.eng.Load(), f2.Engine(), fx.ds.NumUsers(), now)
}

func TestFollowerRebootstrapsPastTruncation(t *testing.T) {
	fx := newLeaderFix(t, 120, 9, 1<<10) // ~40 records per segment
	third := len(fx.test) / 3
	fx.observeRange(t, 0, third)

	fdir := t.TempDir()
	f := fx.openFollower(t, fdir)
	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Leader advances and checkpoints enough that retention truncates
	// the segments the dead follower would need. No retain floor is
	// wired here — this test is the documented re-bootstrap path.
	fx.observeRange(t, third, len(fx.test))
	eng := fx.eng.Load()
	for i := 0; i < 3; i++ {
		if _, err := eng.Checkpoint(fx.dir); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := durable.ListWALSegments(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].First <= uint64(third) {
		t.Fatalf("fixture did not truncate past the follower (oldest segment %v)", segs)
	}

	f2 := fx.openFollower(t, fdir)
	defer f2.Close()
	if got := counterValue(f2.Engine(), "replica/follower/rebootstraps"); got == 0 {
		t.Fatal("follower resumed across a truncation gap without re-bootstrapping")
	}
	if err := f2.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	now := fx.test[len(fx.test)-1].Time + 1
	assertSameRecommendations(t, fx.eng.Load(), f2.Engine(), fx.ds.NumUsers(), now)
}

func TestRetainFloorPinsTruncation(t *testing.T) {
	fx := newLeaderFix(t, 120, 10, 1<<10)
	eng := fx.eng.Load()
	eng.SetWALRetainFloor(fx.ldr.RetainFloor)

	// A follower acked at index 5 and went quiet. Its pin must survive
	// checkpoints until the ack TTL expires.
	resp, err := http.Get(fx.hs.URL + "/wal/segments?from=5&id=pinned&ack=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fx.observeRange(t, 0, len(fx.test))
	for i := 0; i < 3; i++ {
		if _, err := eng.Checkpoint(fx.dir); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := durable.ListWALSegments(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].First > 5 {
		t.Fatalf("retention truncated a segment a live follower still needs (oldest %v)", segs)
	}

	// Expire the ack and checkpoint again: the pin lifts and retention
	// catches up.
	fx.clockSkew.Store(int64(11 * time.Minute))
	if _, err := eng.Checkpoint(fx.dir); err != nil {
		t.Fatal(err)
	}
	segs, err = durable.ListWALSegments(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].First <= 5 {
		t.Fatalf("expired follower still pins retention (oldest %v)", segs)
	}
}

func TestFollowerSalvagesTornLeaderTail(t *testing.T) {
	fx := newLeaderFix(t, 120, 11, 0)
	half := len(fx.test) / 2
	fx.observeRange(t, 0, half)

	f := fx.openFollower(t, t.TempDir())
	defer f.Close()
	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	tornAt := fx.eng.Load().WALNextIndex()

	// Simulate the leader crashing mid-append: close the engine, then
	// stamp a complete-looking record with a garbage checksum onto the
	// last segment — exactly what a torn page can leave.
	if err := fx.eng.Load().Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := durable.ListWALSegments(fx.dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listing leader segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	sf, err := os.OpenFile(filepath.Join(fx.dir, durable.SegmentFileName(last.First)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 8+17)
	binary.LittleEndian.PutUint32(torn[0:4], 17)
	binary.LittleEndian.PutUint32(torn[4:8], 0xdeadbeef) // CRC cannot match
	if _, err := sf.Write(torn); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	// Advertise the torn record so the follower fetches it.
	fx.override.Store(tornAt + 1)

	deadline := time.Now().Add(10 * time.Second)
	for counterValue(f.Engine(), "replica/follower/corrupt_chunks") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never saw the torn tail")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("follower wedged on a torn tail: %v", err)
	}

	// Leader restarts: OpenEngine truncates the torn bytes and appends
	// fresh records at the same indices.
	reopen := fx.oopts
	reopen.Dataset = nil
	eng2, rs, err := repro.OpenEngine(fx.dir, reopen)
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALNextIndex != tornAt {
		t.Fatalf("leader restart resumed at %d, want %d", rs.WALNextIndex, tornAt)
	}
	fx.eng.Store(eng2)
	// Stop advertising the torn record before appending: a listing that
	// still says tornAt+1 while the follower fetches the new records
	// behind it reads as a leader that lost records (ErrDiverged).
	fx.override.Store(0)
	fx.observeRange(t, half, len(fx.test))

	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	now := fx.test[len(fx.test)-1].Time + 1
	assertSameRecommendations(t, eng2, f.Engine(), fx.ds.NumUsers(), now)
}

func TestFollowerWedgesOnDivergence(t *testing.T) {
	fx := newLeaderFix(t, 120, 12, 0)
	fx.observeRange(t, 0, len(fx.test)/2)

	f := fx.openFollower(t, t.TempDir())
	defer f.Close()
	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The leader's log regresses behind what the follower applied — the
	// signature of a leader that lost acknowledged records in a crash.
	// Overriding to applied-5 simulates it without corrupting state.
	fx.override.Store(f.AppliedIndex() - 5)

	deadline := time.Now().Add(10 * time.Second)
	for f.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("follower kept tailing a regressed leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.Err() != replica.ErrDiverged {
		t.Fatalf("terminal error = %v, want ErrDiverged", f.Err())
	}
	if wedged, _ := gaugeValue(f.Engine(), "replica/follower/wedged"); wedged != 1 {
		t.Fatalf("replica/follower/wedged = %d, want 1", wedged)
	}
}

// TestFollowerServerContract drives the full serving stack: a follower
// backend behind internal/server must refuse writes, stamp reads with
// X-Replica-Lag, and 503 past MaxLag.
func TestFollowerServerContract(t *testing.T) {
	fx := newLeaderFix(t, 120, 13, 0)
	fx.observeRange(t, 0, len(fx.test)/2)

	f := fx.openFollower(t, t.TempDir())
	defer f.Close()
	if err := f.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.ForFollower(f), server.Options{MaxLag: 3})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	// Reads serve with the lag header.
	resp, err := http.Get(fmt.Sprintf("%s/recommend?user=%d&k=5&now=%d", hs.URL, fx.test[0].User, fx.test[0].Time+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica read status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Replica-Lag") != "0" {
		t.Fatalf("X-Replica-Lag = %q, want 0", resp.Header.Get("X-Replica-Lag"))
	}

	// Writes are refused before they can diverge the replica.
	resp, err = http.Post(hs.URL+"/observe", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica observe status = %d, want 403", resp.StatusCode)
	}

	// Push lag past the bound (records the follower cannot fetch yet —
	// the override advertises them without writing bytes) and the read
	// path sheds with 503.
	fx.override.Store(f.AppliedIndex() + 10)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(fmt.Sprintf("%s/recommend?user=%d&k=5&now=%d", hs.URL, fx.test[0].User, fx.test[0].Time+1))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read path never shed at lag > MaxLag (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
