package eval

import "testing"

func deltaMetrics(ks []int, hits []int, sets []map[pairKey]struct{}) *Metrics {
	return &Metrics{Ks: ks, Hits: hits, HitSets: sets}
}

func TestQualityDelta(t *testing.T) {
	ks := []int{10, 20}
	oracle := deltaMetrics(ks, []int{4, 0}, []map[pairKey]struct{}{
		{makePair(1, 1): {}, makePair(1, 2): {}, makePair(2, 1): {}, makePair(3, 9): {}},
		{},
	})
	cand := deltaMetrics(ks, []int{3, 5}, []map[pairKey]struct{}{
		{makePair(1, 1): {}, makePair(2, 1): {}, makePair(4, 4): {}},
		{makePair(1, 1): {}},
	})
	d := QualityDelta(oracle, cand)
	if d.HitRatio[0] != 0.75 {
		t.Errorf("HitRatio[0] = %v, want 0.75", d.HitRatio[0])
	}
	if d.CommonRatio[0] != 0.5 {
		t.Errorf("CommonRatio[0] = %v, want 0.5 (2 of the oracle's 4 pairs)", d.CommonRatio[0])
	}
	// Zero oracle hits: no quality existed to lose, both ratios are 1.
	if d.HitRatio[1] != 1 || d.CommonRatio[1] != 1 {
		t.Errorf("zero-oracle k: ratios %v/%v, want 1/1", d.HitRatio[1], d.CommonRatio[1])
	}
	if d.MinHitRatio != 0.75 || d.MinCommonRatio != 0.5 {
		t.Errorf("min ratios %v/%v, want 0.75/0.5", d.MinHitRatio, d.MinCommonRatio)
	}
}

func TestQualityDeltaRejectsMismatchedSweeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched k sweeps accepted")
		}
	}()
	QualityDelta(deltaMetrics([]int{10}, []int{0}, []map[pairKey]struct{}{{}}),
		deltaMetrics([]int{20}, []int{0}, []map[pairKey]struct{}{{}}))
}

// QualityDelta quantifies how far a candidate method's recommendation
// quality drifts from an oracle run of the same replay — how a lossy
// mechanism (the lossy community prune, PruneQualitySweep) reports its
// cost instead of assuming it is free. Both Metrics must come from the
// same Replay (same cohort, same k sweep); the function panics on
// mismatched sweeps because a delta across different protocols is
// meaningless.

// Delta compares a candidate run against an oracle run, per k.
type Delta struct {
	// Ks is the shared k sweep.
	Ks []int
	// OracleHits and CandidateHits are the absolute hit counts.
	OracleHits    []int
	CandidateHits []int
	// HitRatio is CandidateHits/OracleHits per k (1 when the oracle has
	// no hits — no quality existed to lose).
	HitRatio []float64
	// CommonRatio is the fraction of the oracle's hit (user, tweet) pairs
	// the candidate also hit, per k: a candidate can match the hit *count*
	// while recommending different tweets, and this term catches that.
	CommonRatio []float64
	// MinHitRatio and MinCommonRatio are the worst points of the sweeps —
	// the single-number summaries tests bound.
	MinHitRatio    float64
	MinCommonRatio float64
}

// QualityDelta computes the candidate-vs-oracle quality comparison.
func QualityDelta(oracle, candidate *Metrics) Delta {
	if len(oracle.Ks) != len(candidate.Ks) {
		panic("eval: QualityDelta across different k sweeps")
	}
	d := Delta{
		Ks:             append([]int(nil), oracle.Ks...),
		MinHitRatio:    1,
		MinCommonRatio: 1,
	}
	for i, k := range oracle.Ks {
		if candidate.Ks[i] != k {
			panic("eval: QualityDelta across different k sweeps")
		}
		oh, ch := oracle.Hits[i], candidate.Hits[i]
		d.OracleHits = append(d.OracleHits, oh)
		d.CandidateHits = append(d.CandidateHits, ch)
		hr, cr := 1.0, 1.0
		if oh > 0 {
			hr = float64(ch) / float64(oh)
			common := 0
			for key := range oracle.HitSets[i] {
				if _, ok := candidate.HitSets[i][key]; ok {
					common++
				}
			}
			cr = float64(common) / float64(oh)
		}
		d.HitRatio = append(d.HitRatio, hr)
		d.CommonRatio = append(d.CommonRatio, cr)
		if hr < d.MinHitRatio {
			d.MinHitRatio = hr
		}
		if cr < d.MinCommonRatio {
			d.MinCommonRatio = cr
		}
	}
	return d
}
