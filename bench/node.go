package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro"
	"repro/internal/xrand"
)

// Fixed set-up, the same on every workload (bench/README.md says why each
// differs from the scale ISSUE 13 first named).
const (
	datasetUsers   = 3000  // gen.DefaultConfig(datasetUsers, datasetSeed)
	datasetSeed    = 1     // fixed: --seed drives the traffic, never the dataset (README.md)
	trainFrac      = 0.9   // oldest 90 % train the engine, the rest is the stream
	preloadActions = 10000 // stream prefix applied during set-up
	walTailActions = 2000  // of which this many arrive after the checkpoint
	recK           = 10    // k of every recommendation read
	checkUsers     = 200   // users compared by each identical-lists check
	zipfS          = 1.0   // read-user skew
)

// nodeSetup reports what building one node cost and found.
type nodeSetup struct {
	InitS                     float64 `json:"init_s"`
	PreloadS                  float64 `json:"preload_s"`
	CheckpointS               float64 `json:"checkpoint_s"`
	RecoveryS                 float64 `json:"recovery_s"`
	RecoveryWALRecords        int     `json:"recovery_wal_records"`
	RecoveryCheckpointActions int     `json:"recovery_checkpoint_actions"`
	// RecoveredIdentical is the restart check: the recovered engine
	// returned bit-identical lists to the engine it replaced.
	RecoveredIdentical bool `json:"recovered_identical"`

	initStart time.Time // when initialization began, for the engine.open span
}

// buildNode brings one node to the state every workload starts from, the
// way a deployed node gets there: a fresh durability directory is opened
// on the dataset (initialization, PAPER.md §6), the stream prefix is
// observed, a checkpoint is taken, a WAL tail accumulates behind it, and
// the process "restarts" — Close, then OpenEngine recovering checkpoint
// plus tail. The recovered engine is the system under test. WAL sync
// policy is the durable default (interval, 50 ms); no background
// checkpointer or refresher runs, the workloads drive those themselves.
func buildNode(ds *repro.Dataset, dir string, seed uint64) (*repro.Engine, []repro.Action, nodeSetup, error) {
	var ns nodeSetup
	train, test, err := repro.SplitDataset(ds, trainFrac)
	if err != nil {
		return nil, nil, ns, err
	}
	if len(test) <= preloadActions {
		return nil, nil, ns, fmt.Errorf("test stream has %d actions, need more than %d", len(test), preloadActions)
	}
	eo := repro.DefaultEngineOptions()
	eo.Train = train

	start := time.Now()
	live, _, err := repro.OpenEngine(dir, repro.OpenOptions{Dataset: ds, Engine: eo})
	if err != nil {
		return nil, nil, ns, fmt.Errorf("open fresh engine: %w", err)
	}
	ns.initStart, ns.InitS = start, time.Since(start).Seconds()

	start = time.Now()
	cut := preloadActions - walTailActions
	if err := observeAll(live, test[:cut]); err != nil {
		return nil, nil, ns, err
	}
	ns.PreloadS = time.Since(start).Seconds()
	start = time.Now()
	if _, err := live.Checkpoint(dir); err != nil {
		return nil, nil, ns, fmt.Errorf("checkpoint: %w", err)
	}
	ns.CheckpointS = time.Since(start).Seconds()
	start = time.Now()
	if err := observeAll(live, test[cut:preloadActions]); err != nil {
		return nil, nil, ns, err
	}
	ns.PreloadS += time.Since(start).Seconds()
	if err := live.Close(); err != nil {
		return nil, nil, ns, fmt.Errorf("close: %w", err)
	}

	// Train stays unset on the reopen: recovery derives it from the
	// checkpoint manifest, as a restarted process would.
	eo.Train = nil
	eng, rs, err := repro.OpenEngine(dir, repro.OpenOptions{Engine: eo})
	if err != nil {
		return nil, nil, ns, fmt.Errorf("recover: %w", err)
	}
	ns.RecoveryS = rs.Duration.Seconds()
	ns.RecoveryWALRecords = rs.WALRecords
	ns.RecoveryCheckpointActions = rs.CheckpointActions

	now := test[preloadActions-1].Time
	ns.RecoveredIdentical = true
	for _, u := range xrand.New(seed).Sample(ds.NumUsers(), checkUsers) {
		a, acold := live.RecommendWithColdStart(repro.UserID(u), recK, now)
		b, bcold := eng.RecommendWithColdStart(repro.UserID(u), recK, now)
		if acold != bcold || !sameRecs(a, b) {
			ns.RecoveredIdentical = false
		}
	}
	return eng, test, ns, nil
}

// observeAll applies actions as one batch and fails on any rejected or
// durability-degraded slot.
func observeAll(e *repro.Engine, actions []repro.Action) error {
	for i, err := range e.ObserveBatch(actions) {
		if err != nil {
			return fmt.Errorf("set-up observe %d: %w", i, err)
		}
	}
	return nil
}

// sameRecs reports bit-identical recommendation lists.
func sameRecs(a, b []repro.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tweet != b[i].Tweet || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// checkRecs validates one recommendation list against the output
// contract: at most k items, scores non-increasing, no tweet the user
// already shared on the stream, every tweet published within maxAge of now.
func checkRecs(ds *repro.Dataset, shared func(repro.UserID, repro.TweetID) bool, u repro.UserID, now repro.Timestamp, maxAge repro.Timestamp, recs []repro.Recommendation) error {
	if len(recs) > recK {
		return fmt.Errorf("user %d: %d items, k=%d", u, len(recs), recK)
	}
	for i, r := range recs {
		if int(r.Tweet) >= ds.NumTweets() {
			return fmt.Errorf("user %d: tweet %d out of range", u, r.Tweet)
		}
		if i > 0 && r.Score > recs[i-1].Score {
			return fmt.Errorf("user %d: scores increase at rank %d", u, i)
		}
		if shared(u, r.Tweet) {
			return fmt.Errorf("user %d: tweet %d already shared", u, r.Tweet)
		}
		if age := now - ds.Tweets[r.Tweet].Time; age > maxAge {
			return fmt.Errorf("user %d: tweet %d is %d s old at now=%d", u, r.Tweet, age, now)
		}
	}
	return nil
}

// sharedSet answers "had u shared t by then" over the stream: the set-up
// prefix (stamped 0) and every action acknowledged since, stamped with its
// acknowledgement time in unix nanoseconds. Training-log shares are left
// out on purpose: the engine marks only streamed shares as taken, so a
// tweet shared during training and still fresh after the cut can come
// back (README.md, "Found while building this").
type sharedSet map[uint64]int64

func actionKey(u repro.UserID, t repro.TweetID) uint64 { return uint64(u)<<32 | uint64(t) }

func (s sharedSet) add(actions []repro.Action) {
	for _, a := range actions {
		s[actionKey(a.User, a.Tweet)] = 0
	}
}

// hadBy reports whether u's share of t was acknowledged before at: only
// then must a response produced at or after at leave t out.
func (s sharedSet) hadBy(u repro.UserID, t repro.TweetID, at int64) bool {
	stamp, ok := s[actionKey(u, t)]
	return ok && stamp < at
}

// recDigest folds read results into an FNV-1a digest: equal digests mean
// every read of two runs returned the same tweets with the same scores.
type recDigest struct {
	h   hash.Hash64
	buf [8]byte
}

func newRecDigest() *recDigest { return &recDigest{h: fnv.New64a()} }

func (d *recDigest) mix(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:]) // hash.Hash.Write never fails
}

func (d *recDigest) add(u repro.UserID, recs []repro.Recommendation) {
	d.mix(uint64(u))
	d.mix(uint64(len(recs)))
	for _, r := range recs {
		d.mix(uint64(r.Tweet))
		d.mix(math.Float64bits(r.Score))
	}
}

// hotOrder ranks the users from hottest to coldest reader: a permutation
// drawn from the dataset seed, not the traffic seed. Who is hot belongs to
// the dataset — at s=1 the ten hottest users take a third of all reads,
// and a cold-start read costs twenty times a warm one, so letting the
// traffic seed pick them would make every latency and CPU metric a
// property of the seed instead of the code.
func hotOrder(numUsers int) []int {
	return xrand.New(datasetSeed ^ 0x686f74).Perm(numUsers)
}

// readUsers draws read targets: Zipf ranks over hotOrder, so reads hit a
// hot head and a cold tail and include cold-start users.
type readUsers struct {
	perm []int
	zipf *xrand.Zipf
}

func newReadUsers(perm []int, rng *xrand.RNG) *readUsers {
	return &readUsers{perm: perm, zipf: xrand.NewZipf(rng, len(perm), zipfS)}
}

func (r *readUsers) next() repro.UserID { return repro.UserID(r.perm[r.zipf.Rank()-1]) }
