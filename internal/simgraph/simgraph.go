// Package simgraph builds and maintains the paper's similarity graph
// (Definition 4.1): for every user u, explore the 2-hop follow
// neighbourhood N2(u) and add a directed edge u→w for every w ∈ N2(u)
// whose profile similarity sim(u,w) reaches the threshold τ. Out-edges of
// u are its influential users Fu.
//
// Construction parallelizes over source users with a worker pool; each
// worker owns its BFS scratch and emits an edge slice, merged at the end.
// The homophily analysis of §3 justifies the 2-hop cut: it captures
// 70–80 % of each user's most similar peers at a tiny fraction of the
// all-pairs cost.
//
// The package also implements the §6.3 incremental maintenance strategies
// (keep old, update weights, crossfold re-exploration, rebuild from
// scratch) and the Table 4 / Figure 5 characteristics measurements.
package simgraph

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/community"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/similarity"
	"repro/internal/wgraph"
)

// Config tunes SimGraph construction.
type Config struct {
	// Tau is the similarity threshold τ; edges below it are discarded.
	Tau float64
	// Hops is the exploration radius (the paper uses 2).
	Hops int
	// MinProfile skips source users with fewer retweets than this; users
	// without retweets can never have a positive similarity (they are the
	// cold-start cohort the paper leaves to future work).
	MinProfile int
	// MaxNeighborhood caps |N2(u)| per user to bound worst-case hubs; 0
	// means unlimited.
	MaxNeighborhood int
	// MaxOutDegree keeps only each user's top-M influencers by similarity
	// (0 = unlimited). A fixed tau alone cannot fit every activity level:
	// too high and sparse users lose all their edges (no coverage), too
	// low and active users drown their few strong influencers in hundreds
	// of weak ones (Definition 4.2 averages over Fu, so weak-edge floods
	// dilute the signal). The cap acts as a per-user adaptive tau,
	// matching the tight graph the paper reports (mean out-degree 5.9).
	MaxOutDegree int
	// Workers is the construction parallelism; 0 means GOMAXPROCS.
	Workers int
	// Pairwise forces the reference per-pair Sim path instead of the
	// inverted-index SimBatch kernel. The two produce bit-identical
	// graphs; the knob exists for verification and benchmark baselines.
	Pairwise bool
	// ClusterPrune enables the community pre-filter: candidates are
	// dropped by cluster overlap against Clusters before the kernel
	// scores them. At PruneMinOverlap == 0 only zero-overlap candidates
	// PROVABLY below Tau are dropped (similarity.SimUpperBound — exact,
	// the build stays bit-identical).
	// A positive PruneMinOverlap switches to community-restricted
	// exploration: the 2-hop BFS itself refuses to keep OR expand
	// frontier nodes whose overlap with the source is below the
	// threshold, so low-overlap regions of N2(u) cost nothing — not the
	// BFS, not the filter, not the kernel. Lossy (a high-overlap
	// candidate reachable only through a low-overlap intermediate is
	// skipped too), traded for build speed and measured by internal/eval;
	// the pruned graph is always an edge-subset of the unpruned one. The
	// lossy kernel also scatters over a label-bucketed posting index
	// (similarity.SimBatchClustered) so posting-list segments owned by
	// non-candidate communities are skipped as well. No-op while Clusters
	// is nil (e.g. the first build, before any graph exists to detect
	// communities on).
	ClusterPrune bool
	// PruneMinOverlap is the lossy prune threshold, see ClusterPrune.
	PruneMinOverlap float64
	// Clusters is the sparse community embedding the pre-filter consults;
	// typically detected on the previous graph generation.
	Clusters *community.Embeddings
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{
		Tau:             0.003,
		Hops:            2,
		MinProfile:      1,
		MaxNeighborhood: 4000,
		MaxOutDegree:    25,
		Workers:         0,
	}
}

func (c Config) withDefaults() Config {
	if c.Hops <= 0 {
		c.Hops = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinProfile < 1 {
		c.MinProfile = 1
	}
	return c
}

// Build constructs the similarity graph over the follow graph, using the
// profiles and popularities in store.
func Build(follow *graph.Graph, store *similarity.Store, cfg Config) *wgraph.Graph {
	cfg = cfg.withDefaults()
	n := follow.NumNodes()
	idx := clusterIndexFor(store, cfg)

	type task struct{ lo, hi int }
	tasks := make(chan task, cfg.Workers*4)
	results := make(chan []wgraph.Edge, cfg.Workers)

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []wgraph.Edge
			var sc buildScratch // BFS buffers, batch accumulators, top-M heap
			for t := range tasks {
				for u := t.lo; u < t.hi; u++ {
					local = appendEdgesFor(local, follow, store, ids.UserID(u), cfg, idx, &sc)
				}
			}
			results <- local
		}()
	}

	const block = 256
	go func() {
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			tasks <- task{lo, hi}
		}
		close(tasks)
	}()

	go func() {
		wg.Wait()
		close(results)
	}()

	var edges []wgraph.Edge
	for local := range results {
		edges = append(edges, local...)
	}
	return wgraph.NewFromEdges(n, edges)
}

// buildScratch is the per-worker reusable state for appendEdgesFor: BFS
// frontier buffers, the batch-kernel accumulators, the candidate and
// similarity slices, and the bounded top-M heap. Everything grows on
// demand and is retained across source users, so steady-state
// construction allocates only the emitted edges.
type buildScratch struct {
	bfs   graph.BoundedBFS
	batch similarity.BatchScratch
	cands []ids.UserID
	sims  []float64
	top   []wgraph.Edge
	// Clustered-kernel scratch: the candidates' distinct labels
	// (ascending, shifted-by-one membership marks for dedup).
	labels    []int32
	labelSeen []bool
	// Per-source dense overlap vector for the lossy prune's verdict calls.
	overlap community.OverlapScratch
}

// clusterIndexFor builds the label-bucketed posting index the clustered
// SimBatch kernel scatters over, when the config calls for it. One
// linear pass over the inverted index, shared read-only by all workers.
func clusterIndexFor(store *similarity.Store, cfg Config) *similarity.ClusterIndex {
	if !cfg.ClusterPrune || cfg.Clusters == nil || cfg.Pairwise {
		return nil
	}
	return store.BuildClusterIndex(cfg.Clusters.BucketLabels(), cfg.Clusters.NumClusters())
}

// appendEdgesFor explores from u and appends the surviving edges.
func appendEdgesFor(edges []wgraph.Edge, follow *graph.Graph, store *similarity.Store, u ids.UserID, cfg Config, idx *similarity.ClusterIndex, sc *buildScratch) []wgraph.Edge {
	if store.ProfileSize(u) < cfg.MinProfile {
		return edges
	}

	// Lossy cluster pruning restricts the exploration itself: a frontier
	// node whose cluster overlap with u is below the threshold is never
	// expanded, so whole low-overlap regions of N2(u) are skipped before
	// the kernel, the filter, or even the BFS pays for them (under
	// homophily — Nguyen & Zheng, PAPERS.md — low-overlap followees lead
	// to low-overlap candidates). Two carve-outs keep the loss bounded:
	// direct (hop-1) neighbors are always retained as candidates — an
	// explicit follow is stronger signal than a detected label, and
	// scoring one candidate is ~12 ops — and nodes detection said nothing
	// about (no membership at all) are never pruned: their overlap is
	// zero for lack of evidence, not for dissimilarity. Exact mode
	// (PruneMinOverlap == 0) keeps the full exploration: the certificate
	// below must see every candidate to stay bit-identical.
	lossy := cfg.ClusterPrune && cfg.Clusters != nil && cfg.PruneMinOverlap > 0
	if lossy && cfg.Clusters.BucketLabel(u) == community.NoCluster {
		lossy = false // unlabelled source: no evidence to prune on
	}
	var nodes []ids.UserID
	var dist []int8
	if lossy {
		in, kept := 0, 0
		cfg.Clusters.BeginSource(&sc.overlap, u)
		nodes, dist = sc.bfs.ExploreFiltered(follow, u, cfg.Hops, func(v ids.UserID, hop int8) graph.Verdict {
			in++
			if cfg.Clusters.BucketLabel(v) == community.NoCluster ||
				cfg.Clusters.OverlapSource(&sc.overlap, v) >= cfg.PruneMinOverlap {
				kept++
				return graph.KeepExpand
			}
			if hop == 1 {
				kept++
				return graph.Keep
			}
			return graph.Drop
		})
		store.NotePrune(in, kept)
	} else {
		nodes, dist = sc.bfs.Explore(follow, u, cfg.Hops)
	}
	nodes = capNeighborhood(nodes, dist, cfg.MaxNeighborhood)

	// Users with empty profiles can never clear tau; dropping them here
	// keeps them out of the similarity kernel's membership array.
	cands := sc.cands[:0]
	for _, w := range nodes {
		if store.ProfileSize(w) > 0 {
			cands = append(cands, w)
		}
	}

	// Exact-mode pre-filter (PruneMinOverlap == 0): drop a candidate only
	// when it shares no cluster with u AND the O(1) mass certificate
	// proves its similarity cannot reach Tau anyway (only sim ≥ Tau
	// candidates ever become edges), so the built graph stays
	// bit-identical. Filtering compacts sc.cands in place.
	if cfg.ClusterPrune && cfg.Clusters != nil && !lossy {
		in := len(cands)
		kept := cands[:0]
		for _, w := range cands {
			if cfg.Clusters.Overlap(u, w) == 0 && store.SimUpperBound(u, w) < cfg.Tau {
				continue
			}
			kept = append(kept, w)
		}
		cands = kept
		store.NotePrune(in, len(kept))
	}
	sc.cands = cands
	return appendEdgesKernel(edges, store, u, cfg, idx, sc)
}

func appendEdgesKernel(edges []wgraph.Edge, store *similarity.Store, u ids.UserID, cfg Config, idx *similarity.ClusterIndex, sc *buildScratch) []wgraph.Edge {
	cands := sc.cands

	switch {
	case cfg.Pairwise:
		if cap(sc.sims) < len(cands) {
			sc.sims = make([]float64, len(cands))
		}
		sc.sims = sc.sims[:len(cands)]
		for i, w := range cands {
			sc.sims[i] = store.Sim(u, w)
		}
	case idx != nil:
		// Clustered kernel: collect the candidates' distinct labels
		// (ascending; -1 for unlabelled, stored shifted by one in the
		// dedup marks) and scatter over those posting groups only.
		nl := cfg.Clusters.NumClusters()
		if len(sc.labelSeen) < nl+1 {
			sc.labelSeen = make([]bool, nl+1)
		}
		for _, w := range cands {
			sc.labelSeen[cfg.Clusters.BucketLabel(w)+1] = true
		}
		sc.labels = sc.labels[:0]
		for l := 0; l <= nl; l++ {
			if sc.labelSeen[l] {
				sc.labels = append(sc.labels, int32(l-1))
				sc.labelSeen[l] = false
			}
		}
		sc.sims = store.SimBatchClustered(u, cands, sc.labels, idx, &sc.batch, sc.sims)
	default:
		sc.sims = store.SimBatch(u, cands, &sc.batch, sc.sims)
	}

	if cfg.MaxOutDegree <= 0 {
		for i, w := range cands {
			if sim := sc.sims[i]; sim >= cfg.Tau {
				edges = append(edges, wgraph.Edge{From: u, To: w, Weight: float32(sim)})
			}
		}
		return edges
	}

	// Keep the top MaxOutDegree edges with a bounded min-heap instead of
	// sorting every surviving edge: O(|C| log M) and no O(|C|)-sized sort
	// buffer. Ordering is (weight desc, To asc), matching the previous
	// full-sort-and-truncate edge set exactly.
	sc.top = sc.top[:0]
	for i, w := range cands {
		sim := sc.sims[i]
		if sim < cfg.Tau {
			continue
		}
		e := wgraph.Edge{From: u, To: w, Weight: float32(sim)}
		if len(sc.top) < cfg.MaxOutDegree {
			sc.top = append(sc.top, e)
			siftUp(sc.top, len(sc.top)-1)
		} else if edgeLess(sc.top[0], e) {
			sc.top[0] = e
			siftDown(sc.top, 0)
		}
	}
	return append(edges, sc.top...)
}

// capNeighborhood truncates an exploration result to at most max nodes
// without ever dropping hop-1 neighbours. BFS order is non-decreasing in
// distance, so the direct followees form a prefix and the cap removes
// only the hop-2+ tail; raw truncation could arbitrarily drop whole
// hop-2 regions and, for users following more than max accounts, even
// direct followees.
func capNeighborhood(nodes []ids.UserID, dist []int8, max int) []ids.UserID {
	if max <= 0 || len(nodes) <= max {
		return nodes
	}
	h1 := sort.Search(len(dist), func(i int) bool { return dist[i] > 1 })
	if h1 > max {
		max = h1
	}
	return nodes[:max]
}

// edgeLess orders edges worst-first for the bounded heap: an edge is
// "less" when it loses to the other under (weight desc, To asc), so the
// heap root is the weakest kept edge.
func edgeLess(a, b wgraph.Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return a.To > b.To
}

func siftUp(h []wgraph.Edge, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !edgeLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []wgraph.Edge, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && edgeLess(h[l], h[min]) {
			min = l
		}
		if r < len(h) && edgeLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Characteristics summarizes a similarity graph as in Table 4.
type Characteristics struct {
	Nodes         int     // users with at least one incident edge
	Edges         int     // directed edges
	MeanSim       float64 // mean edge weight
	MeanOutDegree float64 // edges / active nodes
	Diameter      int     // estimated (double-sweep lower bound)
	MeanPath      float64 // sampled average shortest path
}

// Measure computes Table 4 characteristics. sampleSources are the BFS
// sources used for path sampling and diameter estimation.
func Measure(g *wgraph.Graph, sampleSources []ids.UserID) Characteristics {
	un := ToUnweighted(g)
	ch := Characteristics{
		Nodes:   g.ActiveNodes(),
		Edges:   g.NumEdges(),
		MeanSim: g.MeanWeight(),
	}
	if ch.Nodes > 0 {
		ch.MeanOutDegree = float64(ch.Edges) / float64(ch.Nodes)
	}
	if len(sampleSources) > 0 {
		ch.MeanPath = un.AveragePathLength(sampleSources)
		limit := len(sampleSources)
		if limit > 8 {
			limit = 8
		}
		ch.Diameter = un.EstimateDiameter(sampleSources[:limit])
	}
	return ch
}

// String renders the characteristics like the paper's Table 4.
func (c Characteristics) String() string {
	return fmt.Sprintf("SimGraph{nodes=%d edges=%d meanSim=%.4f meanOutDeg=%.1f diameter=%d meanPath=%.1f}",
		c.Nodes, c.Edges, c.MeanSim, c.MeanOutDegree, c.Diameter, c.MeanPath)
}

// ToUnweighted projects a weighted similarity graph onto the unweighted
// CSR graph type so the traversal/measurement primitives apply.
func ToUnweighted(g *wgraph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes(), g.NumEdges())
	b.SetNumNodes(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		to, _ := g.Out(ids.UserID(u))
		for _, v := range to {
			b.AddEdge(ids.UserID(u), v)
		}
	}
	return b.Build()
}
