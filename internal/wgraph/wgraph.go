// Package wgraph provides an immutable weighted directed graph in CSR
// form. It backs the similarity graph: an edge u→v with weight sim(u,v)
// means "v is an influential user of u" (v ∈ Fu in the paper's notation).
//
// A graph is never mutated. Incremental maintenance (the paper's
// "SimGraph update" and "crossfold" strategies, and every engine refresh)
// builds a new graph with SpliceOuts, which replaces the out-edge runs of
// the changed users and copies the rest of the CSR arrays.
package wgraph

import (
	"fmt"
	"sort"

	"repro/internal/ids"
)

// Edge is one weighted directed edge.
type Edge struct {
	From, To ids.UserID
	Weight   float32
}

// Builder accumulates weighted edges before freezing into a Graph.
// Duplicate (from, to) pairs keep the last weight added. Not safe for
// concurrent use; parallel constructors should build per-worker edge
// slices and combine with NewFromEdges.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder sized for n nodes and edgeHint edges.
func NewBuilder(n, edgeHint int) *Builder {
	return &Builder{n: n, edges: make([]Edge, 0, edgeHint)}
}

// AddEdge records from→to with the given weight. Self-loops are dropped.
func (b *Builder) AddEdge(from, to ids.UserID, w float32) {
	if from == to {
		return
	}
	if int(from) >= b.n {
		b.n = int(from) + 1
	}
	if int(to) >= b.n {
		b.n = int(to) + 1
	}
	b.edges = append(b.edges, Edge{from, to, w})
}

// SetNumNodes forces the node count to at least n.
func (b *Builder) SetNumNodes(n int) {
	if n > b.n {
		b.n = n
	}
}

// Build freezes the accumulated edges.
func (b *Builder) Build() *Graph { return NewFromEdges(b.n, b.edges) }

// NewFromEdges freezes an edge list into a CSR graph with n nodes.
// The slice is sorted in place. For duplicate (from, to) pairs the last
// occurrence in the sorted run wins.
func NewFromEdges(n int, edges []Edge) *Graph {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	dedup := edges[:0]
	for i, e := range edges {
		if i > 0 && e.From == edges[i-1].From && e.To == edges[i-1].To {
			dedup[len(dedup)-1].Weight = e.Weight
			continue
		}
		dedup = append(dedup, e)
	}
	edges = dedup

	g := &Graph{
		n:      n,
		outPtr: make([]uint64, n+1),
		outTo:  make([]ids.UserID, len(edges)),
		outW:   make([]float32, len(edges)),
		inPtr:  make([]uint64, n+1),
		inFrom: make([]ids.UserID, len(edges)),
		inW:    make([]float32, len(edges)),
	}
	for _, e := range edges {
		g.outPtr[e.From+1]++
		g.inPtr[e.To+1]++
	}
	for i := 0; i < n; i++ {
		g.outPtr[i+1] += g.outPtr[i]
		g.inPtr[i+1] += g.inPtr[i]
	}
	for i, e := range edges {
		g.outTo[i] = e.To
		g.outW[i] = e.Weight
	}
	cursor := make([]uint64, n)
	copy(cursor, g.inPtr[:n])
	for _, e := range edges {
		g.inFrom[cursor[e.To]] = e.From
		g.inW[cursor[e.To]] = e.Weight
		cursor[e.To]++
	}
	return g
}

// Graph is an immutable weighted directed graph (CSR). Safe for
// concurrent readers.
type Graph struct {
	n      int
	outPtr []uint64
	outTo  []ids.UserID
	outW   []float32
	inPtr  []uint64
	inFrom []ids.UserID
	inW    []float32
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// Out returns u's successors and the matching weights. Shared storage —
// callers must not modify.
func (g *Graph) Out(u ids.UserID) ([]ids.UserID, []float32) {
	lo, hi := g.outPtr[u], g.outPtr[u+1]
	return g.outTo[lo:hi], g.outW[lo:hi]
}

// In returns u's predecessors and the matching weights.
func (g *Graph) In(u ids.UserID) ([]ids.UserID, []float32) {
	lo, hi := g.inPtr[u], g.inPtr[u+1]
	return g.inFrom[lo:hi], g.inW[lo:hi]
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u ids.UserID) int { return int(g.outPtr[u+1] - g.outPtr[u]) }

// InDegree returns the in-degree of u.
func (g *Graph) InDegree(u ids.UserID) int { return int(g.inPtr[u+1] - g.inPtr[u]) }

// Weight returns the weight of edge u→v and whether it exists.
func (g *Graph) Weight(u, v ids.UserID) (float32, bool) {
	to, w := g.Out(u)
	i := sort.Search(len(to), func(i int) bool { return to[i] >= v })
	if i < len(to) && to[i] == v {
		return w[i], true
	}
	return 0, false
}

// Edges returns a copy of all edges, sorted by (From, To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.n; u++ {
		to, w := g.Out(ids.UserID(u))
		for i := range to {
			out = append(out, Edge{ids.UserID(u), to[i], w[i]})
		}
	}
	return out
}

// MeanWeight returns the average edge weight, or 0 for an empty graph.
func (g *Graph) MeanWeight() float64 {
	if len(g.outW) == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range g.outW {
		sum += float64(w)
	}
	return sum / float64(len(g.outW))
}

// ActiveNodes returns the number of nodes with at least one incident edge
// (the paper reports SimGraph "nodes" this way: users that survived the
// similarity threshold).
func (g *Graph) ActiveNodes() int {
	n := 0
	for u := 0; u < g.n; u++ {
		if g.OutDegree(ids.UserID(u)) > 0 || g.InDegree(ids.UserID(u)) > 0 {
			n++
		}
	}
	return n
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("wgraph{nodes=%d edges=%d}", g.n, g.NumEdges())
}
