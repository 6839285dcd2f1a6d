package eval

import (
	"testing"
	"time"

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
	qs, err := r.PruneQualitySweep(simgraph.DefaultRecommenderConfig(), community.DefaultConfig(), []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
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
	qs, err := r.PruneQualitySweep(simgraph.DefaultRecommenderConfig(), community.DefaultConfig(), []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
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

// PruneQuality is the outcome of a cluster-pruned-vs-unpruned replay
// comparison: the per-k quality delta plus the structural facts that
// explain it — how many edges the pruned build kept and what the
// community detection cost.
type PruneQuality struct {
	// MinOverlap is the PruneMinOverlap the candidate ran with.
	MinOverlap float64
	// Delta compares the pruned candidate against the unpruned oracle.
	Delta Delta
	// DetectTime is the community-detection wall time on the oracle
	// graph (what the engine pays once per refresh to arm the filter).
	DetectTime time.Duration
	// Clusters and CoveredFrac summarize the detected embeddings.
	Clusters    int
	CoveredFrac float64
	// OracleEdges/PrunedEdges are the built graph sizes; their ratio is
	// the structural cost of the threshold.
	OracleEdges, PrunedEdges int
}

// PruneQualitySweep replays the §6 protocol once with an unpruned
// SimGraph oracle and once per threshold with cluster-pruned candidate
// generation at that PruneMinOverlap, and reports each threshold's
// quality drift. The embeddings are detected once, on the oracle's built
// graph with follow-graph cold fill, exactly how the engine seeds the
// pre-filter for its next refresh generation, so the measured delta is
// the one production would see.
func (r *Replay) PruneQualitySweep(rcfg simgraph.RecommenderConfig, ccfg community.Config, minOverlaps []float64) ([]*PruneQuality, error) {
	ocfg := rcfg
	ocfg.Graph.ClusterPrune = false
	ocfg.Graph.Clusters = nil
	oracle := simgraph.NewRecommender(ocfg)
	oRun, err := r.Run(oracle)
	if err != nil {
		return nil, err
	}
	oMetrics := r.Compute(oRun)

	t0 := time.Now()
	emb := community.Detect(oracle.Graph(), r.Dataset.Graph, ccfg)
	detect := time.Since(t0)

	out := make([]*PruneQuality, 0, len(minOverlaps))
	for _, minOverlap := range minOverlaps {
		pcfg := rcfg
		pcfg.Graph.ClusterPrune = true
		pcfg.Graph.PruneMinOverlap = minOverlap
		pcfg.Graph.Clusters = emb
		pruned := simgraph.NewRecommender(pcfg)
		pRun, err := r.Run(pruned)
		if err != nil {
			return nil, err
		}

		q := &PruneQuality{
			MinOverlap:  minOverlap,
			Delta:       QualityDelta(oMetrics, r.Compute(pRun)),
			DetectTime:  detect,
			Clusters:    emb.NumClusters(),
			OracleEdges: oracle.Graph().NumEdges(),
			PrunedEdges: pruned.Graph().NumEdges(),
		}
		if n := emb.NumUsers(); n > 0 {
			q.CoveredFrac = float64(emb.Covered()) / float64(n)
		}
		out = append(out, q)
	}
	return out, nil
}
