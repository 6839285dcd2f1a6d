package simgraph

import (
	"testing"

	"repro/internal/community"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/similarity"
)

// benchPruneWorld generates the dense-follow benchmark dataset (the
// regime TestPruneQualityFloor in internal/eval pins: fine planted
// communities, paper-scale follow density, candidate-generation-bound
// builds) plus a store and detected embeddings over the unpruned build.
func benchPruneWorld(b *testing.B, users int) (*dataset.Dataset, *similarity.Store, *community.Embeddings) {
	b.Helper()
	ds, err := gen.Generate(gen.DenseFollowConfig(users, 1))
	if err != nil {
		b.Fatal(err)
	}
	store := similarity.NewStore(ds.NumUsers(), ds.NumTweets(), ds.Actions)
	base := Build(ds.Graph, store, DefaultConfig())
	emb := community.Detect(base, ds.Graph, community.DefaultConfig())
	return ds, store, emb
}

func BenchmarkBuildUnpruned(b *testing.B) {
	ds, store, _ := benchPruneWorld(b, 2400)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds.Graph, store, cfg)
	}
}

func BenchmarkBuildPruned(b *testing.B) {
	ds, store, emb := benchPruneWorld(b, 2400)
	cfg := DefaultConfig()
	cfg.ClusterPrune = true
	cfg.PruneMinOverlap = 0.6
	cfg.Clusters = emb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds.Graph, store, cfg)
	}
}
