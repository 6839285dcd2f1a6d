package bubbles

import (
	"testing"

	"repro/internal/community"
	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/recsys"
	"repro/internal/wgraph"
)

// twoCliques builds a similarity graph with two dense cliques {0,1,2} and
// {3,4,5} connected by one weak bridge, plus an isolated node 6.
func twoCliques() *wgraph.Graph {
	b := wgraph.NewBuilder(7, 16)
	b.SetNumNodes(7)
	clique := func(members []ids.UserID) {
		for _, u := range members {
			for _, v := range members {
				if u != v {
					b.AddEdge(u, v, 0.8)
				}
			}
		}
	}
	clique([]ids.UserID{0, 1, 2})
	clique([]ids.UserID{3, 4, 5})
	b.AddEdge(2, 3, 0.05) // weak bridge
	return b.Build()
}

// detect returns g's communities, which are its bubbles.
func detect(g *wgraph.Graph) *community.Embeddings {
	return community.Detect(g, nil, community.DefaultConfig())
}

func TestModularity(t *testing.T) {
	g := twoCliques()
	good := detect(g)
	if good.NumClusters() != 2 {
		t.Fatalf("found %d bubbles, want 2", good.NumClusters())
	}
	qGood := Modularity(g, good)
	if qGood <= 0.3 {
		t.Errorf("clique modularity %v, want clearly positive", qGood)
	}
	// Everything in one bubble: modularity ≈ 0 (all weight internal, but
	// expectation too).
	b := wgraph.NewBuilder(7, 64)
	b.SetNumNodes(7)
	for u := ids.UserID(0); u < 7; u++ {
		for v := ids.UserID(0); v < 7; v++ {
			if u != v {
				b.AddEdge(u, v, 0.5)
			}
		}
	}
	clique := b.Build()
	one := detect(clique)
	if one.NumClusters() != 1 {
		t.Fatalf("one clique split into %d bubbles", one.NumClusters())
	}
	if q := Modularity(clique, one); q > 0.05 {
		t.Errorf("single-bubble modularity %v, want ≈0", q)
	}
}

// stubRec returns a fixed ranked list.
type stubRec struct{ list []recsys.ScoredTweet }

func (s *stubRec) Name() string               { return "stub" }
func (s *stubRec) Init(*recsys.Context) error { return nil }
func (s *stubRec) Observe(dataset.Action)     {}
func (s *stubRec) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	if len(s.list) > k {
		return s.list[:k]
	}
	return s.list
}

func TestDiversifierCapsBubbleShare(t *testing.T) {
	g := twoCliques()
	a := detect(g)
	// Tweets 0..5 authored by users 0..5: first three from bubble of 0.
	authors := []ids.UserID{0, 1, 2, 3, 4, 5}
	base := &stubRec{list: []recsys.ScoredTweet{
		{Tweet: 0, Score: 9}, {Tweet: 1, Score: 8}, {Tweet: 2, Score: 7},
		{Tweet: 3, Score: 6}, {Tweet: 4, Score: 5}, {Tweet: 5, Score: 4},
	}}
	d := NewDiversifier(base, a, func(t ids.TweetID) ids.UserID { return authors[t] })
	d.MaxBubbleShare = 0.5

	got := d.Recommend(0, 4, 0)
	if len(got) != 4 {
		t.Fatalf("got %d recs", len(got))
	}
	counts := map[int32]int{}
	for _, r := range got {
		counts[a.Label(authors[r.Tweet])]++
	}
	for b, c := range counts {
		if c > 2 {
			t.Errorf("bubble %d holds %d of 4 slots (cap 2)", b, c)
		}
	}
	// The top item must survive re-ranking.
	if got[0].Tweet != 0 {
		t.Errorf("top item displaced: %+v", got[0])
	}
}

func TestDiversifierFillsWhenNoDiversity(t *testing.T) {
	g := twoCliques()
	a := detect(g)
	authors := []ids.UserID{0, 1, 2, 0, 1, 2}
	base := &stubRec{list: []recsys.ScoredTweet{
		{Tweet: 0, Score: 9}, {Tweet: 1, Score: 8}, {Tweet: 2, Score: 7},
		{Tweet: 3, Score: 6}, {Tweet: 4, Score: 5}, {Tweet: 5, Score: 4},
	}}
	d := NewDiversifier(base, a, func(t ids.TweetID) ids.UserID { return authors[t] })
	d.MaxBubbleShare = 0.25
	// All candidates from one bubble: the list must still fill to k.
	if got := d.Recommend(0, 4, 0); len(got) != 4 {
		t.Fatalf("diversifier starved the list: %d of 4", len(got))
	}
}

func TestDiversifierName(t *testing.T) {
	d := NewDiversifier(&stubRec{}, &community.Embeddings{}, func(ids.TweetID) ids.UserID { return 0 })
	if d.Name() != "stub+diverse" {
		t.Error(d.Name())
	}
	if got := d.Recommend(0, 0, 0); got != nil {
		t.Error("k=0 returned items")
	}
}
