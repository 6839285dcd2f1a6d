package shard

import (
	"testing"

	"repro"
)

// TestRouterRecoveryBitIdentical is the fleet-wide durability contract:
// a K-shard fleet that checkpointed mid-stream, kept streaming, and lost
// its process (WAL flushed by Close, in-memory state discarded — the
// same crash convention the single-engine persistence tests use) must
// recover to bit-identical recommendations against a never-restarted
// in-memory fleet fed the same stream. Shards recover independently;
// there is no cross-shard recovery ordering to get wrong because an
// action touches exactly one shard.
func TestRouterRecoveryBitIdentical(t *testing.T) {
	fx := newFixture(t, 60, 7)
	opts := Options{Shards: 4, Seed: 5}
	dir := t.TempDir()

	// Never-restarted reference fleet.
	live := fx.newFleet(t, opts)
	fx.feed(t, live)

	// Durable fleet: open, stream 60%, checkpoint, stream the rest, crash.
	oopts := repro.OpenOptions{Engine: fx.eopts, Dataset: fx.ds}
	dur, stats, err := Open(dir, oopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range stats {
		if rs.Recovered {
			t.Fatalf("shard %d recovered state from a fresh directory", i)
		}
	}
	cut := len(fx.test) * 6 / 10
	for _, a := range fx.test[:cut] {
		if err := dur.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
	ckStats, err := dur.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckStats) != opts.Shards {
		t.Fatalf("checkpoint stats for %d shards, want %d", len(ckStats), opts.Shards)
	}
	for _, a := range fx.test[cut:] {
		if err := dur.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover and compare.
	rec, stats, err := Open(dir, oopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	walTail := 0
	for i, rs := range stats {
		if !rs.Recovered {
			t.Errorf("shard %d: nothing recovered", i)
		}
		if rs.CheckpointSeq == 0 {
			t.Errorf("shard %d: no checkpoint loaded", i)
		}
		walTail += rs.WALRecords
	}
	if walTail != len(fx.test)-cut {
		t.Errorf("WAL tails replayed %d records, want %d (post-checkpoint stream)", walTail, len(fx.test)-cut)
	}

	assertSameFleetOutput(t,
		recommendAllRouter(live, 10, fx.now),
		recommendAllRouter(rec, 10, fx.now),
		"recovered fleet vs never-restarted fleet")

	// A post-recovery refresh must also agree shard by shard: each
	// recovered shard saw the same owned observation sequence.
	live.RefreshGraphStats(repro.UpdateFromScratch)
	rec.RefreshGraphStats(repro.UpdateFromScratch)
	assertSameFleetOutput(t,
		recommendAllRouter(live, 10, fx.now),
		recommendAllRouter(rec, 10, fx.now),
		"after post-recovery refresh")

	merged := rec.ObservedActions()
	if len(merged) != len(fx.test) {
		t.Fatalf("recovered fleet observed %d actions, fed %d", len(merged), len(fx.test))
	}
}

// TestOpenManifestMismatch: a durability directory pins its ring; any
// reopen that would change user→shard ownership must refuse instead of
// recovering misrouted state.
func TestOpenManifestMismatch(t *testing.T) {
	fx := newFixture(t, 60, 7)
	dir := t.TempDir()
	oopts := repro.OpenOptions{Engine: fx.eopts, Dataset: fx.ds}

	r, _, err := Open(dir, oopts, Options{Shards: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, oopts, Options{Shards: 3, Seed: 9}); err == nil {
		t.Error("reopen with a different shard count accepted")
	}
	if _, _, err := Open(dir, oopts, Options{Shards: 2, Seed: 10}); err == nil {
		t.Error("reopen with a different ring seed accepted")
	}
	if _, _, err := Open(dir, oopts, Options{Shards: 2, Seed: 9, Replicas: 7}); err == nil {
		t.Error("reopen with a different replica count accepted")
	}

	r, _, err = Open(dir, oopts, Options{Shards: 2, Seed: 9})
	if err != nil {
		t.Fatalf("matching reopen refused: %v", err)
	}
	r.Close()
}

// TestOpenRequiresDataset: per-shard training slices are filtered views
// of the global log, so Open without the dataset cannot reconstruct them
// and must say so up front.
func TestOpenRequiresDataset(t *testing.T) {
	if _, _, err := Open(t.TempDir(), repro.OpenOptions{}, Options{Shards: 2}); err == nil {
		t.Error("Open without a dataset accepted")
	}
}

// TestCheckpointRequiresOpen: in-memory fleets have no durability
// directories to snapshot into.
func TestCheckpointRequiresOpen(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 2})
	if _, err := r.Checkpoint(); err == nil {
		t.Error("Checkpoint on an in-memory fleet accepted")
	}
}
