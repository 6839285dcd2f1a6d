package eval

import (
	"time"

	"repro/internal/community"
	"repro/internal/simgraph"
)

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

// PruneQualityDelta replays the §6 protocol twice — once with an
// unpruned SimGraph oracle, once with cluster-pruned candidate
// generation at the given PruneMinOverlap — and reports the quality
// drift. The embeddings are detected on the oracle's built graph with
// follow-graph cold fill, exactly how the engine seeds the pre-filter
// for its next refresh generation, so the measured delta is the one
// production would see.
func (r *Replay) PruneQualityDelta(rcfg simgraph.RecommenderConfig, ccfg community.Config, minOverlap float64) (*PruneQuality, error) {
	qs, err := r.PruneQualitySweep(rcfg, ccfg, []float64{minOverlap})
	if err != nil {
		return nil, err
	}
	return qs[0], nil
}

// PruneQualitySweep is PruneQualityDelta over several thresholds,
// paying for the unpruned oracle replay and the community detection
// once instead of once per threshold.
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
