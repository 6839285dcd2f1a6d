package shard

import (
	"testing"

	"repro"
	"repro/internal/eval"
	"repro/internal/gen"
)

// TestShardedQualityDelta measures — via the paper's §6 replay protocol —
// how much recommendation quality a 4-shard fleet loses to the
// single-engine oracle because cross-shard similarity edges cannot
// exist. The delta is a *measured* quantity, not an assumption: this
// test is the guardrail that keeps it from silently regressing.
//
// The floors below were calibrated on this fixture (300 users, seed 7,
// 4 shards ≈ quarter-sized similarity neighborhoods): measured worst-k
// hit ratio 0.79 and common-hit ratio 0.63. The assertions leave slack
// under the measured values so they trip on a real merge/routing
// regression, not on noise.
func TestShardedQualityDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("replay protocol on a 300-user dataset")
	}
	ds, err := gen.Generate(gen.DefaultConfig(300, 7))
	if err != nil {
		t.Fatal(err)
	}
	opts := eval.Options{
		TrainFrac:      0.9,
		KMin:           10,
		KMax:           40,
		KStep:          10,
		SamplePerClass: 40,
		Seed:           1,
	}
	rp, err := eval.NewReplay(ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	eopts := repro.DefaultEngineOptions()
	oracle := NewEvalOracle(eopts)
	cand := NewEvalRecommender(eopts, Options{Shards: 4})

	oRun, err := rp.Run(oracle)
	if err != nil {
		t.Fatal(err)
	}
	cRun, err := rp.Run(cand)
	if err != nil {
		t.Fatal(err)
	}
	oM, cM := rp.Compute(oRun), rp.Compute(cRun)
	d := eval.QualityDelta(oM, cM)

	for i, k := range d.Ks {
		t.Logf("k=%3d: oracle %4d hits, 4-shard %4d hits, hit ratio %.3f, common ratio %.3f",
			k, d.OracleHits[i], d.CandidateHits[i], d.HitRatio[i], d.CommonRatio[i])
	}
	t.Logf("worst-k: hit ratio %.3f, common ratio %.3f; cross-shard observes %d",
		d.MinHitRatio, d.MinCommonRatio, cand.Router().CrossShardObserves())

	oracleTotal := 0
	for _, h := range d.OracleHits {
		oracleTotal += h
	}
	if oracleTotal == 0 {
		t.Fatal("vacuous: the oracle hit nothing, no quality exists to compare")
	}
	// Calibrated floors (see the comment above): trip on regressions in
	// the router's merge/routing, not on the measured partitioning cost.
	if d.MinHitRatio < 0.50 {
		t.Errorf("worst-k hit ratio %.3f fell below the calibrated 0.50 floor", d.MinHitRatio)
	}
	if d.MinCommonRatio < 0.40 {
		t.Errorf("worst-k common-hit ratio %.3f fell below the calibrated 0.40 floor", d.MinCommonRatio)
	}
	if cand.Router().CrossShardObserves() == 0 {
		t.Error("replay produced no cross-shard co-retweets; the delta measurement is vacuous")
	}
}
