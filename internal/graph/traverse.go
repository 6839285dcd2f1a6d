package graph

import (
	"math"

	"repro/internal/ids"
)

// Unreachable marks nodes with no path from the BFS source.
const Unreachable = int32(-1)

// BFS computes distances (in hops, following out-edges) from src to every
// node. The dist slice is reused if it has the right length, otherwise a
// new one is allocated; it is returned either way.
func (g *Graph) BFS(src ids.UserID, dist []int32) []int32 {
	if len(dist) != g.n {
		dist = make([]int32, g.n)
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]ids.UserID, 0, 1024)
	queue = append(queue, src)
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Out(u) {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BoundedBFS is reusable scratch for repeated bounded explorations from
// different sources over graphs of the same node space. The visited set
// is an epoch-stamped array — bumping the epoch invalidates it in O(1),
// so a worker that explores thousands of sources (SimGraph construction)
// never clears or reallocates between calls. The zero value is ready to
// use. Not safe for concurrent use; give each worker its own.
type BoundedBFS struct {
	epoch  uint32
	seen   []uint32
	nodes  []ids.UserID
	dist   []int8
	expand []bool // ExploreFiltered only: whether nodes[i] gets traversed
}

// Explore returns the nodes at distance 1..maxHops from src (following
// out-edges), excluding src itself, along with each node's distance.
// Nodes appear in BFS order, so distances are non-decreasing. The
// returned slices alias the scratch and are valid until the next call.
func (b *BoundedBFS) Explore(g *Graph, src ids.UserID, maxHops int) (nodes []ids.UserID, dist []int8) {
	if len(b.seen) < g.n {
		b.seen = make([]uint32, g.n)
		b.epoch = 0
	}
	b.epoch++
	if b.epoch == 0 { // wrapped after 2^32 calls: clear and restart
		for i := range b.seen {
			b.seen[i] = 0
		}
		b.epoch = 1
	}
	// The queue doubles as the result: slot 0 holds src and is trimmed
	// from the returned view.
	b.nodes = append(b.nodes[:0], src)
	b.dist = append(b.dist[:0], 0)
	b.seen[src] = b.epoch
	for head := 0; head < len(b.nodes); head++ {
		d := b.dist[head]
		if int(d) >= maxHops {
			break // BFS order: every later node is at least this far
		}
		for _, v := range g.Out(b.nodes[head]) {
			if b.seen[v] == b.epoch {
				continue
			}
			b.seen[v] = b.epoch
			b.nodes = append(b.nodes, v)
			b.dist = append(b.dist, d+1)
		}
	}
	return b.nodes[1:], b.dist[1:]
}

// Verdict is ExploreFiltered's per-node decision. Keeping and expanding
// are independent: a node can stay in the result without its out-edges
// being traversed (Keep), which lets a caller retain direct neighbors as
// candidates while refusing to discover anything through them.
type Verdict uint8

const (
	// Drop removes the node from the result and never expands it.
	Drop Verdict = iota
	// Keep retains the node in the result but does not expand it.
	Keep
	// KeepExpand retains the node and traverses its out-edges.
	KeepExpand
)

// ExploreFiltered is Explore with a node predicate: each newly-discovered
// node gets a Verdict deciding whether it appears in the result and
// whether the BFS traverses through it, so whole subtrees reachable only
// through rejected nodes are skipped. src itself is always expanded. The
// predicate is called once per newly-discovered node, in BFS order, with
// the node's hop distance. This is the community-restricted exploration
// the cluster pruner uses: under homophily, frontier nodes with low
// cluster overlap lead to low-overlap candidates, so cutting them at the
// frontier saves the expansion, the scoring, and the per-candidate
// filtering downstream — while direct neighbors (explicit follow signal)
// can still be kept as candidates without being expanded.
func (b *BoundedBFS) ExploreFiltered(g *Graph, src ids.UserID, maxHops int, verdict func(v ids.UserID, hop int8) Verdict) (nodes []ids.UserID, dist []int8) {
	if len(b.seen) < g.n {
		b.seen = make([]uint32, g.n)
		b.epoch = 0
	}
	b.epoch++
	if b.epoch == 0 { // wrapped after 2^32 calls: clear and restart
		for i := range b.seen {
			b.seen[i] = 0
		}
		b.epoch = 1
	}
	b.nodes = append(b.nodes[:0], src)
	b.dist = append(b.dist[:0], 0)
	b.expand = append(b.expand[:0], true)
	b.seen[src] = b.epoch
	for head := 0; head < len(b.nodes); head++ {
		d := b.dist[head]
		if int(d) >= maxHops {
			break
		}
		if !b.expand[head] {
			continue
		}
		for _, v := range g.Out(b.nodes[head]) {
			if b.seen[v] == b.epoch {
				continue
			}
			b.seen[v] = b.epoch
			ver := verdict(v, d+1)
			if ver == Drop {
				continue
			}
			b.nodes = append(b.nodes, v)
			b.dist = append(b.dist, d+1)
			b.expand = append(b.expand, ver == KeepExpand)
		}
	}
	return b.nodes[1:], b.dist[1:]
}

// PathLengthDistribution BFS-samples shortest-path lengths from sources
// chosen by the caller and histograms them. hist[d] counts ordered pairs
// (s, v) with dist(s, v) == d for d >= 1; unreachable pairs are counted in
// the returned impossible total.
func (g *Graph) PathLengthDistribution(sources []ids.UserID) (hist []int64, impossible int64) {
	dist := make([]int32, g.n)
	for _, s := range sources {
		dist = g.BFS(s, dist)
		for v, d := range dist {
			if ids.UserID(v) == s {
				continue
			}
			switch {
			case d == Unreachable:
				impossible++
			default:
				for int(d) >= len(hist) {
					hist = append(hist, 0)
				}
				hist[d]++
			}
		}
	}
	return hist, impossible
}

// AveragePathLength estimates the mean shortest-path length over reachable
// pairs using the given BFS sources.
func (g *Graph) AveragePathLength(sources []ids.UserID) float64 {
	hist, _ := g.PathLengthDistribution(sources)
	var sum, cnt float64
	for d, c := range hist {
		sum += float64(d) * float64(c)
		cnt += float64(c)
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / cnt
}

// EstimateDiameter lower-bounds the diameter with the double-sweep
// heuristic repeated from several starting points: BFS from a start, then
// BFS again from the farthest node found. It returns the largest finite
// eccentricity observed.
func (g *Graph) EstimateDiameter(starts []ids.UserID) int {
	best := 0
	dist := make([]int32, g.n)
	for _, s := range starts {
		for sweep := 0; sweep < 2; sweep++ {
			dist = g.BFS(s, dist)
			far, fd := s, int32(0)
			for v, d := range dist {
				if d > fd {
					fd, far = d, ids.UserID(v)
				}
			}
			if int(fd) > best {
				best = int(fd)
			}
			s = far
		}
	}
	return best
}

// Distance returns the shortest-path hop count from u to v following
// out-edges, or -1 if unreachable. It runs a targeted BFS that stops as
// soon as v is settled.
func (g *Graph) Distance(u, v ids.UserID) int {
	if u == v {
		return 0
	}
	seen := map[ids.UserID]int32{u: 0}
	queue := []ids.UserID{u}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		d := seen[cur]
		for _, w := range g.Out(cur) {
			if _, ok := seen[w]; ok {
				continue
			}
			if w == v {
				return int(d + 1)
			}
			seen[w] = d + 1
			queue = append(queue, w)
		}
	}
	return -1
}
