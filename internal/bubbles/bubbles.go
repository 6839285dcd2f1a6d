// Package bubbles implements the paper's §7 future-work direction:
// identifying "information bubbles" in the similarity graph and breaking
// them by diversifying recommendations across bubbles.
//
// A bubble is a densely connected region of the similarity graph — users
// who amplify each other's content. The paper observes that recommended
// information "is generally originated from the same sub-part of the
// graph" and proposes a complementary score to escape information
// locality.
//
// Bubbles are the communities of internal/community: a user's bubble is
// its hard label (Embeddings.Label), and users with no similarity edge
// sit in no bubble (community.NoCluster). Influence stays inside
// communities, so the structure that prunes the graph build is the one
// that bounds information locality. Quality is quantified with weighted
// modularity. The Diversifier then re-ranks any recommender's output to
// cap the share of a single bubble in the top-k.
package bubbles

import (
	"repro/internal/community"
	"repro/internal/ids"
	"repro/internal/wgraph"
)

// Modularity computes the weighted directed modularity of a community
// labelling over the similarity graph — the standard quality measure:
// the fraction of edge weight inside bubbles minus the expectation under
// a random rewiring with the same degree sequence.
func Modularity(g *wgraph.Graph, a *community.Embeddings) float64 {
	var total float64
	outW := make([]float64, g.NumNodes())
	inW := make([]float64, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		to, w := g.Out(ids.UserID(u))
		for i := range to {
			total += float64(w[i])
			outW[u] += float64(w[i])
			inW[to[i]] += float64(w[i])
		}
	}
	if total == 0 {
		return 0
	}
	var q float64
	for u := 0; u < g.NumNodes(); u++ {
		lu := a.Label(ids.UserID(u))
		if lu == community.NoCluster {
			continue
		}
		to, w := g.Out(ids.UserID(u))
		for i, v := range to {
			if a.Label(v) == lu {
				q += float64(w[i]) / total
			}
		}
	}
	// Expected in-bubble weight under the configuration model.
	sumOut := make([]float64, a.NumClusters())
	sumIn := make([]float64, a.NumClusters())
	for u := 0; u < g.NumNodes(); u++ {
		if l := a.Label(ids.UserID(u)); l != community.NoCluster {
			sumOut[l] += outW[u]
			sumIn[l] += inW[u]
		}
	}
	for b := range sumOut {
		q -= (sumOut[b] / total) * (sumIn[b] / total)
	}
	return q
}
