// Package server is the network serving layer: a stdlib-only HTTP
// front end over a single repro.Engine or a shard.Router, adding the
// two things in-process callers never needed — a per-user
// recommendation cache invalidated by propagation deltas and graph
// refreshes rather than TTL guesswork, and admission control that
// sheds load (429 + Retry-After) when too many requests are in flight
// or the windowed p99 of the engine's own latency histograms crosses a
// budget. Each POST /observe is one single-action ObserveBatch call.
package server

import (
	"repro"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/shard"
)

// Backend is the slice of the engine/router surface the server drives.
// repro.Engine and shard.Router both implement every method except
// RecommendLatency; ForEngine and ForRouter attach that by pulling the
// recommend-latency histogram(s) out of the metric registries, so the
// shed controller reads the same instruments the benchmarks report.
type Backend interface {
	// ObserveBatch applies a batch with one lock entry and one group
	// commit (per shard, for routers). Per-slot error contract: nil,
	// an error wrapping repro.ErrWALRecordLogged (applied, durability
	// in doubt), or a rejection.
	ObserveBatch(actions []repro.Action) []error
	// RecommendWithColdStart serves user u; the flag marks cold-start
	// results, which the cache must not hold (no invalidation signal).
	RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool)
	// Similarity returns sim(u, v) (0 across router shards).
	Similarity(u, v repro.UserID) float64
	// PropagateScores runs the §5 propagation from the given seeds.
	PropagateScores(seeds []repro.UserID) map[repro.UserID]float64
	// SetOnScoresChanged installs the cache-invalidation hook: called
	// with the users whose lists may have changed, nil meaning "assume
	// everything changed". May fire under backend locks — the hook
	// must be fast and must not call back into the backend.
	SetOnScoresChanged(fn func(users []repro.UserID))
	// Metrics snapshots the backend's instrument tree.
	Metrics() metrics.Snapshot
	// RecommendLatency exposes the live recommend-latency histograms
	// the shed controller windows over (one per engine).
	RecommendLatency() []*metrics.Histogram
}

// engineLatencyName is the histogram the engine's Recommend path
// observes into (engine.go); the shed controller windows over it.
const engineLatencyName = "engine/recommend/latency_ns"

type engineBackend struct {
	*repro.Engine
	hists []*metrics.Histogram
}

func (b engineBackend) RecommendLatency() []*metrics.Histogram { return b.hists }

// ForEngine adapts a single engine.
func ForEngine(e *repro.Engine) Backend {
	return engineBackend{
		Engine: e,
		hists:  []*metrics.Histogram{e.MetricsRegistry().Histogram(engineLatencyName)},
	}
}

// ReplicaSource marks a backend as a read replica. The server then
// rejects observes (403 — the replica's tail loop is its only writer),
// stamps every read with X-Replica-Lag, and 503s reads once lag
// exceeds Options.MaxLag.
type ReplicaSource interface {
	// ReplicaLag reports how many leader records this backend has not
	// applied yet; ok false means the signal is unavailable and reads
	// pass unannotated.
	ReplicaLag() (lag uint64, ok bool)
}

type followerBackend struct {
	engineBackend
	f *replica.Follower
}

func (b followerBackend) ReplicaLag() (uint64, bool) { return b.f.Lag(), true }

// ForFollower adapts a replication follower: reads serve from its
// warm engine with the staleness contract attached; writes are refused
// by the server before they reach the backend.
func ForFollower(f *replica.Follower) Backend {
	e := f.Engine()
	return followerBackend{
		engineBackend: engineBackend{
			Engine: e,
			hists:  []*metrics.Histogram{e.MetricsRegistry().Histogram(engineLatencyName)},
		},
		f: f,
	}
}

type routerBackend struct {
	*shard.Router
	hists []*metrics.Histogram
}

func (b routerBackend) RecommendLatency() []*metrics.Histogram { return b.hists }

// ForRouter adapts a sharded fleet; the shed signal is the merged
// window over every shard's recommend-latency histogram.
func ForRouter(r *shard.Router) Backend {
	hists := make([]*metrics.Histogram, r.NumShards())
	for i := range hists {
		hists[i] = r.Shard(i).MetricsRegistry().Histogram(engineLatencyName)
	}
	return routerBackend{Router: r, hists: hists}
}
