// Package server is the network serving layer: a stdlib-only HTTP
// front end over one repro.Engine, adding the two things in-process
// callers never needed — a per-user recommendation cache invalidated
// by propagation deltas and graph refreshes rather than TTL guesswork,
// and admission control that sheds load (429 + Retry-After) when too
// many requests are in flight or the windowed p99 of the engine's own
// latency histogram crosses a budget. Each POST /observe is one
// single-action ObserveBatch call.
package server

import (
	"repro"
	"repro/internal/metrics"
)

// Backend is the slice of the engine surface the server drives.
// repro.Engine implements every method except RecommendLatency;
// ForEngine attaches that by pulling the recommend-latency histogram
// out of the engine's metric registry, so the shed controller reads the
// same instrument the benchmarks report.
type Backend interface {
	// ObserveBatch applies a batch with one lock entry and one group
	// commit. Per-slot error contract: nil, an error wrapping
	// repro.ErrWALRecordLogged (applied, durability in doubt), or a
	// rejection.
	ObserveBatch(actions []repro.Action) []error
	// RecommendWithColdStart serves user u; the flag marks cold-start
	// results, which the cache must not hold (no invalidation signal).
	RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool)
	// Similarity returns sim(u, v).
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
	// RecommendLatency exposes the live recommend-latency histogram
	// the shed controller windows over.
	RecommendLatency() *metrics.Histogram
}

// engineLatencyName is the histogram the engine's Recommend path
// observes into (engine.go); the shed controller windows over it.
const engineLatencyName = "engine/recommend/latency_ns"

type engineBackend struct {
	*repro.Engine
	hist *metrics.Histogram
}

func (b engineBackend) RecommendLatency() *metrics.Histogram { return b.hist }

// ForEngine adapts a single engine.
func ForEngine(e *repro.Engine) Backend {
	return engineBackend{Engine: e, hist: e.MetricsRegistry().Histogram(engineLatencyName)}
}
