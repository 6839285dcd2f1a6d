package shard

import (
	"fmt"

	"repro"
	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/recsys"
)

// This file adapts the Router (and the single-engine oracle) to the
// internal/eval replay harness, so the recommendation-quality cost of
// partitioning is measured by the same §6 protocol as the paper's
// methods: replay the temporal test split through both, count hits, and
// report the delta (eval.QualityDelta). This is the differential half of
// the sharding contract — crash recovery pins bit-identity per shard,
// and the eval delta pins how far the K-shard fleet's output drifts from
// the single-engine oracle because cross-shard similarity edges are
// unrepresentable.

// EvalRecommender drives a K-shard Router through the recsys.Recommender
// interface. The router is built lazily in Init from the harness
// context, so one value can be passed to eval.Replay.Run like any other
// method.
type EvalRecommender struct {
	EngineOpts repro.EngineOptions
	Opts       Options
	router     *Router
}

// NewEvalRecommender wraps fleet options for the eval harness.
func NewEvalRecommender(eopts repro.EngineOptions, opts Options) *EvalRecommender {
	return &EvalRecommender{EngineOpts: eopts, Opts: opts}
}

// Name identifies the run in eval reports.
func (s *EvalRecommender) Name() string { return fmt.Sprintf("SimGraph-%dshard", s.Opts.Shards) }

// Init builds the fleet from the harness context.
func (s *EvalRecommender) Init(ctx *recsys.Context) error {
	eopts := s.EngineOpts
	eopts.Train = ctx.Train
	eopts.MaxAge = ctx.MaxAge
	r, err := New(ctx.Dataset, eopts, s.Opts)
	if err != nil {
		return err
	}
	s.router = r
	return nil
}

// Observe routes one test action to its owner shard.
func (s *EvalRecommender) Observe(a dataset.Action) {
	// Replayed test actions are always in range; an error here would be a
	// WAL degradation, which in-memory fleets cannot produce.
	_ = s.router.Observe(a.User, a.Tweet, a.Time)
}

// Recommend serves the harness query through the router.
func (s *EvalRecommender) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	return s.router.Recommend(u, k, now)
}

// Router exposes the built fleet (after Init), for counter assertions.
func (s *EvalRecommender) Router() *Router { return s.router }

// EvalOracle drives a single repro.Engine through the same interface —
// the unsharded ground truth the fleet is measured against. It uses the
// engine's own cold-start fallback, mirroring what the router's
// scatter-gather reconstructs.
type EvalOracle struct {
	EngineOpts repro.EngineOptions
	engine     *repro.Engine
}

// NewEvalOracle wraps single-engine options for the eval harness.
func NewEvalOracle(eopts repro.EngineOptions) *EvalOracle {
	return &EvalOracle{EngineOpts: eopts}
}

// Name identifies the oracle in eval reports.
func (o *EvalOracle) Name() string { return "SimGraph-engine" }

// Init trains the oracle engine from the harness context.
func (o *EvalOracle) Init(ctx *recsys.Context) error {
	eopts := o.EngineOpts
	eopts.Train = ctx.Train
	eopts.MaxAge = ctx.MaxAge
	eopts.ColdStartFallback = true
	e, err := repro.NewEngine(ctx.Dataset, eopts)
	if err != nil {
		return err
	}
	o.engine = e
	return nil
}

// Observe streams one test action into the oracle.
func (o *EvalOracle) Observe(a dataset.Action) {
	_ = o.engine.Observe(a.User, a.Tweet, a.Time)
}

// Recommend serves the harness query from the oracle engine.
func (o *EvalOracle) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	return o.engine.Recommend(u, k, now)
}

// Engine exposes the built oracle (after Init).
func (o *EvalOracle) Engine() *repro.Engine { return o.engine }
