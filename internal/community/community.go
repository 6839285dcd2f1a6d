// Package community detects communities on the weighted similarity graph
// and represents each user as a sparse cluster-membership vector — the
// SimClusters idea (Twitter's production candidate-generation layer)
// applied to our own Definition 4.1 graph.
//
// Detection is synchronous label propagation: every round computes each
// user's next label purely from the previous round's label array (Jacobi
// style, never from a half-updated one), so the result is bit-identical
// across runs AND across worker counts — unlike seeded asynchronous
// propagation, whose output depends on update order. The same labels
// serve the graph-build pruning, the cold-start fallback, and the §7
// information bubbles (internal/bubbles).
// Ties break deterministically (highest incident mass, then lowest
// label). Rounds are bounded because synchronous propagation can
// oscillate on bipartite structures instead of converging.
//
// The embedding of a user is the normalized distribution of its
// neighbours' communities, truncated to the TopC heaviest entries and
// stored CSR-style (one flat cluster/weight array pair plus per-user
// offsets). Overlap — the dot product of two membership vectors — is a
// sorted-list merge over at most TopC entries each: allocation-free and
// cheap enough to run once per (source, candidate) pair inside the
// similarity-graph build's hot loop (simgraph cluster pruning), and once
// per followee in the engine's cold-start fallback.
//
// Users with no incident similarity edge get no label from propagation.
// When a follow graph is supplied, their vector is instead derived from
// their followees' hard labels (homophily: you mostly follow your own
// community), which is exactly what the cold-start path needs — a brand
// new user has no retweets, hence no similarity edges, but usually does
// follow someone.
package community

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/wgraph"
)

// NoCluster marks a user with no community assignment.
const NoCluster = int32(-1)

// Config tunes community detection.
type Config struct {
	// TopC caps each user's membership vector length; only the TopC
	// heaviest cluster weights are kept (then re-normalized).
	TopC int
	// MaxRounds bounds label propagation; synchronous updates can
	// oscillate, so a hard cap replaces a convergence guarantee.
	MaxRounds int
	// MinClusterSize drops clusters with fewer members from the final
	// numbering; membership entries pointing at dropped clusters vanish.
	MinClusterSize int
	// Workers is the detection parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the settings used by the engine and benchmarks.
func DefaultConfig() Config {
	return Config{TopC: 4, MaxRounds: 16, MinClusterSize: 2}
}

func (c Config) withDefaults() Config {
	if c.TopC <= 0 {
		c.TopC = 4
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Embeddings holds the detection result: hard labels plus sparse
// per-user membership vectors in CSR form. Immutable once built; safe
// for any number of concurrent readers.
type Embeddings struct {
	labels []int32 // per user, compacted cluster id or NoCluster
	sizes  []int32 // per cluster, member count (by hard label)

	// CSR membership: user u's vector is cluster[ptr[u]:ptr[u+1]] with
	// matching weights, cluster ids sorted ascending per user, weights
	// L1-normalized.
	ptr     []int32
	cluster []int32
	weight  []float32

	// bucket is the kernel-bucketing label per user: the hard label when
	// set, else the argmax of the membership vector, else NoCluster.
	bucket []int32
}

// Detect runs label propagation over the similarity graph sim and builds
// sparse membership vectors. follow, when non-nil, fills vectors for
// users with no incident similarity edge from their followees' labels;
// pass nil to skip the cold fill.
func Detect(sim *wgraph.Graph, follow *graph.Graph, cfg Config) *Embeddings {
	cfg = cfg.withDefaults()
	n := sim.NumNodes()
	prev := make([]int32, n)
	next := make([]int32, n)
	active := 0
	for u := 0; u < n; u++ {
		if sim.OutDegree(ids.UserID(u)) > 0 || sim.InDegree(ids.UserID(u)) > 0 {
			prev[u] = int32(u)
			active++
		} else {
			prev[u] = NoCluster
		}
	}

	if active > 0 {
		for rounds := 0; rounds < cfg.MaxRounds; rounds++ {
			if !propagateRound(sim, prev, next, cfg.Workers) {
				break
			}
			prev, next = next, prev
		}
	}

	e := &Embeddings{}
	remap := e.compactLabels(prev, cfg.MinClusterSize)
	e.buildMembership(sim, follow, prev, remap, cfg)
	e.buildBucketLabels()
	return e
}

// buildBucketLabels derives the kernel-bucketing labels: the hard label
// where one exists, otherwise the heaviest membership cluster (cold-fill
// vectors give edge-less users a home bucket instead of the shared
// unlabelled bucket, which every pruned scatter would otherwise have to
// walk). Rows are cluster-ascending, so strict > keeps the lowest id on
// weight ties — deterministic.
func (e *Embeddings) buildBucketLabels() {
	e.bucket = make([]int32, len(e.labels))
	for u := range e.labels {
		b := e.labels[u]
		if b == NoCluster {
			var bestW float32
			for i := e.ptr[u]; i < e.ptr[u+1]; i++ {
				if w := e.weight[i]; w > bestW {
					bestW = w
					b = e.cluster[i]
				}
			}
		}
		e.bucket[u] = b
	}
}

// propagateRound computes one synchronous round: next[u] is the label
// holding the largest incident edge mass among u's neighbours under the
// prev labelling (ties: lowest label). Reads touch only prev, so worker
// partitioning cannot affect the result. Returns whether any label moved.
func propagateRound(sim *wgraph.Graph, prev, next []int32, workers int) bool {
	n := len(prev)
	var changed atomic.Int64
	var cursor atomic.Int64
	const block = 256
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sc := newLabelAcc(n)
			moved := int64(0)
			for {
				lo := int(cursor.Add(block)) - block
				if lo >= n {
					break
				}
				hi := lo + block
				if hi > n {
					hi = n
				}
				for u := lo; u < hi; u++ {
					if prev[u] == NoCluster {
						next[u] = NoCluster
						continue
					}
					best := bestLabel(sim, ids.UserID(u), prev, sc)
					if best == NoCluster {
						best = prev[u] // isolated in practice: keep own label
					}
					next[u] = best
					if best != prev[u] {
						moved++
					}
				}
			}
			changed.Add(moved)
		}()
	}
	wg.Wait()
	return changed.Load() > 0
}

// labelAcc is per-worker scratch for mass accumulation: a dense
// epoch-stamped accumulator indexed by label (labels start as user ids,
// so the domain is [0, n)) plus the touched-label list.
type labelAcc struct {
	mass    []float64
	stamp   []uint32
	epoch   uint32
	touched []int32
}

func newLabelAcc(n int) *labelAcc {
	return &labelAcc{mass: make([]float64, n), stamp: make([]uint32, n)}
}

func (sc *labelAcc) reset() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear stamps and restart
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	sc.touched = sc.touched[:0]
}

func (sc *labelAcc) add(label int32, w float64) {
	if sc.stamp[label] != sc.epoch {
		sc.stamp[label] = sc.epoch
		sc.mass[label] = 0
		sc.touched = append(sc.touched, label)
	}
	sc.mass[label] += w
}

// bestLabel accumulates incident edge mass per neighbour label (out-edges
// then in-edges, CSR order — a fixed per-user summation order, so the
// floating-point result is reproducible) and returns the heaviest label,
// ties to the lowest. NoCluster when u has no labelled neighbour.
func bestLabel(sim *wgraph.Graph, u ids.UserID, labels []int32, sc *labelAcc) int32 {
	sc.reset()
	to, tw := sim.Out(u)
	for i, v := range to {
		if l := labels[v]; l != NoCluster {
			sc.add(l, float64(tw[i]))
		}
	}
	from, fw := sim.In(u)
	for i, v := range from {
		if l := labels[v]; l != NoCluster {
			sc.add(l, float64(fw[i]))
		}
	}
	best := NoCluster
	bestMass := 0.0
	for _, l := range sc.touched {
		m := sc.mass[l]
		if best == NoCluster || m > bestMass || (m == bestMass && l < best) {
			best, bestMass = l, m
		}
	}
	return best
}

// compactLabels renumbers raw labels (user ids) to dense cluster ids
// ordered by descending member count (ties: lower raw label), dropping
// clusters below minSize. It installs e.labels and e.sizes and returns
// the raw→compact map (NoCluster for dropped/absent).
func (e *Embeddings) compactLabels(raw []int32, minSize int) []int32 {
	n := len(raw)
	count := make([]int32, n)
	for _, l := range raw {
		if l != NoCluster {
			count[l]++
		}
	}
	order := make([]int32, 0, 64)
	for l, c := range count {
		if int(c) >= minSize && c > 0 {
			order = append(order, int32(l))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if count[order[i]] != count[order[j]] {
			return count[order[i]] > count[order[j]]
		}
		return order[i] < order[j]
	})
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = NoCluster
	}
	e.sizes = make([]int32, len(order))
	for id, l := range order {
		remap[l] = int32(id)
		e.sizes[id] = count[l]
	}
	e.labels = make([]int32, n)
	for u, l := range raw {
		if l == NoCluster {
			e.labels[u] = NoCluster
		} else {
			e.labels[u] = remap[l]
		}
	}
	return remap
}

// memEntry is one (cluster, weight) pair during vector assembly.
type memEntry struct {
	cluster int32
	weight  float32
}

// buildMembership assembles the CSR membership vectors: active users get
// the distribution of their neighbours' compacted labels weighted by
// edge mass; edge-less users get the cold fill from followee labels when
// a follow graph is available. Runs in parallel over users; assembly of
// the flat arrays is a serial second pass.
func (e *Embeddings) buildMembership(sim *wgraph.Graph, follow *graph.Graph, raw, remap []int32, cfg Config) {
	n := len(raw)
	rows := make([][]memEntry, n)
	var cursor atomic.Int64
	const block = 256
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer wg.Done()
			sc := newLabelAcc(n)
			for {
				lo := int(cursor.Add(block)) - block
				if lo >= n {
					break
				}
				hi := lo + block
				if hi > n {
					hi = n
				}
				for u := lo; u < hi; u++ {
					if raw[u] != NoCluster {
						rows[u] = memberRow(sim, ids.UserID(u), raw, remap, cfg.TopC, sc)
					} else if follow != nil {
						rows[u] = coldRow(follow, ids.UserID(u), e.labels, cfg.TopC, sc)
					}
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, r := range rows {
		total += len(r)
	}
	e.ptr = make([]int32, n+1)
	e.cluster = make([]int32, 0, total)
	e.weight = make([]float32, 0, total)
	for u, r := range rows {
		e.ptr[u] = int32(len(e.cluster))
		for _, en := range r {
			e.cluster = append(e.cluster, en.cluster)
			e.weight = append(e.weight, en.weight)
		}
	}
	e.ptr[n] = int32(len(e.cluster))
}

// memberRow computes an active user's top-C normalized membership over
// its neighbours' compacted labels, cluster ids sorted ascending.
func memberRow(sim *wgraph.Graph, u ids.UserID, raw, remap []int32, topC int, sc *labelAcc) []memEntry {
	sc.reset()
	to, tw := sim.Out(u)
	for i, v := range to {
		if l := raw[v]; l != NoCluster && remap[l] != NoCluster {
			sc.add(remap[l], float64(tw[i]))
		}
	}
	from, fw := sim.In(u)
	for i, v := range from {
		if l := raw[v]; l != NoCluster && remap[l] != NoCluster {
			sc.add(remap[l], float64(fw[i]))
		}
	}
	return topEntries(sc, topC)
}

// coldRow derives an edge-less user's vector from its followees' hard
// labels, one unit of mass per labelled followee.
func coldRow(follow *graph.Graph, u ids.UserID, labels []int32, topC int, sc *labelAcc) []memEntry {
	sc.reset()
	for _, v := range follow.Out(u) {
		if int(v) < len(labels) && labels[v] != NoCluster {
			sc.add(labels[v], 1)
		}
	}
	return topEntries(sc, topC)
}

// topEntries selects the topC heaviest touched clusters (ties: lower
// cluster id), normalizes to unit L1 mass, and returns them sorted by
// cluster id ascending — the order Overlap's merge requires.
func topEntries(sc *labelAcc, topC int) []memEntry {
	if len(sc.touched) == 0 {
		return nil
	}
	sort.Slice(sc.touched, func(i, j int) bool {
		mi, mj := sc.mass[sc.touched[i]], sc.mass[sc.touched[j]]
		if mi != mj {
			return mi > mj
		}
		return sc.touched[i] < sc.touched[j]
	})
	keep := sc.touched
	if len(keep) > topC {
		keep = keep[:topC]
	}
	out := make([]memEntry, len(keep))
	total := 0.0
	for _, c := range keep {
		total += sc.mass[c]
	}
	for i, c := range keep {
		out[i] = memEntry{cluster: c, weight: float32(sc.mass[c] / total)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cluster < out[j].cluster })
	return out
}

// NumUsers returns the user count the embeddings cover.
func (e *Embeddings) NumUsers() int { return len(e.labels) }

// NumClusters returns the number of surviving (compacted) clusters.
func (e *Embeddings) NumClusters() int { return len(e.sizes) }

// ClusterSize returns the member count of cluster c (hard labels).
func (e *Embeddings) ClusterSize(c int32) int32 {
	if c < 0 || int(c) >= len(e.sizes) {
		return 0
	}
	return e.sizes[c]
}

// Labels exposes the per-user hard label slice (compacted cluster ids,
// NoCluster for unlabelled users), indexed by user id. Shared storage —
// callers must treat it as read-only.
func (e *Embeddings) Labels() []int32 { return e.labels }

// BucketLabels exposes the kernel-bucketing labels: hard label where one
// exists, argmax membership cluster for cold-filled users, NoCluster only
// for users with no signal at all. Shared storage — read-only. This is
// the slice similarity.BuildClusterIndex wants: it empties the shared
// unlabelled bucket that a pruned scatter would otherwise always walk.
func (e *Embeddings) BucketLabels() []int32 { return e.bucket }

// BucketLabel returns u's kernel-bucketing label (see BucketLabels).
func (e *Embeddings) BucketLabel(u ids.UserID) int32 {
	if int(u) >= len(e.bucket) {
		return NoCluster
	}
	return e.bucket[u]
}

// Label returns u's hard cluster id, or NoCluster.
func (e *Embeddings) Label(u ids.UserID) int32 {
	if int(u) >= len(e.labels) {
		return NoCluster
	}
	return e.labels[u]
}

// Covered returns how many users have a non-empty membership vector.
func (e *Embeddings) Covered() int {
	c := 0
	for u := 0; u < len(e.labels); u++ {
		if e.ptr[u] < e.ptr[u+1] {
			c++
		}
	}
	return c
}

// meanVectorLen returns the average membership-vector length over
// covered users (0 when nothing is covered).
func (e *Embeddings) meanVectorLen() float64 {
	c := e.Covered()
	if c == 0 {
		return 0
	}
	return float64(len(e.cluster)) / float64(c)
}

// OverlapScratch is per-worker state for repeated Overlap queries
// against one fixed source user: the source's sparse vector is scattered
// into a dense per-cluster array once (BeginSource), after which each
// query walks only the candidate's rows with direct lookups instead of a
// two-pointer merge. Results are bit-identical to Overlap — shared
// clusters are visited in the same ascending order with the same float64
// products. The zero value is ready to use; not safe for concurrent use.
type OverlapScratch struct {
	w    []float32
	prev []int32 // clusters written by the previous BeginSource
}

// BeginSource loads u's membership vector into the scratch, clearing the
// previous source's entries in O(TopC).
func (e *Embeddings) BeginSource(sc *OverlapScratch, u ids.UserID) {
	if len(sc.w) < len(e.sizes) {
		sc.w = make([]float32, len(e.sizes))
		sc.prev = sc.prev[:0]
	}
	for _, c := range sc.prev {
		sc.w[c] = 0
	}
	sc.prev = sc.prev[:0]
	if int(u) >= len(e.labels) {
		return
	}
	for i := e.ptr[u]; i < e.ptr[u+1]; i++ {
		sc.w[e.cluster[i]] = e.weight[i]
		sc.prev = append(sc.prev, e.cluster[i])
	}
}

// OverlapSource returns Overlap(u, v) for the u loaded by the last
// BeginSource call on sc.
func (e *Embeddings) OverlapSource(sc *OverlapScratch, v ids.UserID) float64 {
	if int(v) >= len(e.labels) {
		return 0
	}
	var dot float64
	for i := e.ptr[v]; i < e.ptr[v+1]; i++ {
		dot += float64(sc.w[e.cluster[i]]) * float64(e.weight[i])
	}
	return dot
}

// Overlap returns the dot product of u's and v's membership vectors —
// in [0, 1] for L1-normalized vectors, 0 when the cluster sets are
// disjoint or either vector is empty. Symmetric, allocation-free: a
// sorted merge over at most TopC entries per side.
func (e *Embeddings) Overlap(u, v ids.UserID) float64 {
	if int(u) >= len(e.labels) || int(v) >= len(e.labels) {
		return 0
	}
	ulo, uhi := e.ptr[u], e.ptr[u+1]
	vlo, vhi := e.ptr[v], e.ptr[v+1]
	var dot float64
	i, j := ulo, vlo
	for i < uhi && j < vhi {
		cu, cv := e.cluster[i], e.cluster[j]
		switch {
		case cu < cv:
			i++
		case cu > cv:
			j++
		default:
			dot += float64(e.weight[i]) * float64(e.weight[j])
			i++
			j++
		}
	}
	return dot
}
