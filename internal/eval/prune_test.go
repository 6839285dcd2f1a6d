package eval

import (
	"testing"

	"repro/internal/community"
	"repro/internal/gen"
	"repro/internal/simgraph"
)

// TestPruneQualityExactMode pins the harness against the exactness
// guarantee: at PruneMinOverlap=0 the pruned build is bit-identical to
// the oracle's, so the replay must report zero quality drift.
func TestPruneQualityExactMode(t *testing.T) {
	r, err := NewReplay(testDataset(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, err := r.PruneQualityDelta(simgraph.DefaultRecommenderConfig(), community.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.PrunedEdges != q.OracleEdges {
		t.Fatalf("exact mode changed edges: %d vs %d", q.PrunedEdges, q.OracleEdges)
	}
	if q.Delta.MinHitRatio != 1 || q.Delta.MinCommonRatio != 1 {
		t.Fatalf("exact mode drifted: hit %v common %v", q.Delta.MinHitRatio, q.Delta.MinCommonRatio)
	}
	if q.Clusters == 0 {
		t.Fatal("no communities detected on the oracle graph")
	}
}

// TestPruneQualityLossyBounds sanity-checks a lossy threshold: the
// pruned graph can only shrink and every ratio stays in [0, 1].
func TestPruneQualityLossyBounds(t *testing.T) {
	r, err := NewReplay(testDataset(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, err := r.PruneQualityDelta(simgraph.DefaultRecommenderConfig(), community.DefaultConfig(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if q.PrunedEdges > q.OracleEdges {
		t.Fatalf("pruned build grew: %d vs %d", q.PrunedEdges, q.OracleEdges)
	}
	for i := range q.Delta.Ks {
		if hr := q.Delta.HitRatio[i]; hr < 0 {
			t.Fatalf("k=%d hit ratio %v", q.Delta.Ks[i], hr)
		}
		if cr := q.Delta.CommonRatio[i]; cr < 0 || cr > 1 {
			t.Fatalf("k=%d common ratio %v", q.Delta.Ks[i], cr)
		}
	}
	if q.CoveredFrac <= 0 || q.CoveredFrac > 1 {
		t.Fatalf("covered fraction %v", q.CoveredFrac)
	}
}

// TestPruneQualityFloor pins the cluster-pruned build's quality floor on
// the dense-follow regime it is meant for (fine planted communities,
// paper-scale follow density): overlap 0 is exact, and the lossy
// operating point 0.6 keeps the worst-k hit ratio at or above 0.90
// against the unpruned oracle (0.931 when the floor was set).
func TestPruneQualityFloor(t *testing.T) {
	ds, err := gen.Generate(gen.DenseFollowConfig(800, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplay(ds, Options{
		TrainFrac:      0.9,
		KMin:           10,
		KMax:           40,
		KStep:          10,
		SamplePerClass: 80,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := r.PruneQualitySweep(simgraph.DefaultRecommenderConfig(), community.DefaultConfig(), []float64{0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	exact, lossy := qs[0], qs[1]
	if exact.PrunedEdges != exact.OracleEdges || exact.Delta.MinHitRatio != 1 {
		t.Fatalf("overlap 0 not exact: edges %d vs %d, worst-k hit ratio %v",
			exact.PrunedEdges, exact.OracleEdges, exact.Delta.MinHitRatio)
	}
	if lossy.Delta.MinHitRatio < 0.90 {
		t.Fatalf("overlap 0.6: worst-k hit ratio %.3f below the 0.90 floor (hits %v vs oracle %v)",
			lossy.Delta.MinHitRatio, lossy.Delta.CandidateHits, lossy.Delta.OracleHits)
	}
	t.Logf("overlap 0.6: worst-k hit ratio %.3f, %d of %d edges kept",
		lossy.Delta.MinHitRatio, lossy.PrunedEdges, lossy.OracleEdges)
}
