// Package graph provides the directed-graph substrate used for both the
// Twitter follow network and the derived similarity network: a mutable
// Builder that freezes into an immutable CSR (compressed sparse row)
// Graph with out- and in-adjacency, plus the traversal and measurement
// primitives the paper's analysis needs (BFS, bounded neighbourhoods,
// path-length distributions, diameter estimation).
package graph

import (
	"fmt"
	"sort"

	"repro/internal/ids"
)

// Builder accumulates edges before freezing them into a Graph. The zero
// value is ready to use. Builder is not safe for concurrent use.
type Builder struct {
	n     int
	edges []edge
}

type edge struct{ from, to ids.UserID }

// NewBuilder returns a builder that pre-allocates for nodes n and hint
// edges.
func NewBuilder(n, edgeHint int) *Builder {
	return &Builder{n: n, edges: make([]edge, 0, edgeHint)}
}

// AddEdge records the directed edge from→to, growing the node count as
// needed. Self-loops are ignored; duplicates are removed at Build time.
func (b *Builder) AddEdge(from, to ids.UserID) {
	if from == to {
		return
	}
	if int(from) >= b.n {
		b.n = int(from) + 1
	}
	if int(to) >= b.n {
		b.n = int(to) + 1
	}
	b.edges = append(b.edges, edge{from, to})
}

// SetNumNodes forces the node count to at least n, so isolated nodes are
// representable.
func (b *Builder) SetNumNodes(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumEdges returns the number of edges recorded so far (before dedup).
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build freezes the builder into an immutable Graph. Duplicate edges are
// merged. The builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].from != b.edges[j].from {
			return b.edges[i].from < b.edges[j].from
		}
		return b.edges[i].to < b.edges[j].to
	})
	// Dedup in place.
	dedup := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			dedup = append(dedup, e)
		}
	}
	b.edges = dedup

	g := &Graph{
		n:       b.n,
		outPtr:  make([]uint64, b.n+1),
		outList: make([]ids.UserID, len(b.edges)),
		inPtr:   make([]uint64, b.n+1),
		inList:  make([]ids.UserID, len(b.edges)),
	}
	// Out-adjacency straight from sorted edges.
	for _, e := range b.edges {
		g.outPtr[e.from+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outPtr[i+1] += g.outPtr[i]
	}
	for i, e := range b.edges {
		g.outList[i] = e.to
		_ = i
	}
	// In-adjacency by counting sort on target.
	for _, e := range b.edges {
		g.inPtr[e.to+1]++
	}
	for i := 0; i < b.n; i++ {
		g.inPtr[i+1] += g.inPtr[i]
	}
	cursor := make([]uint64, b.n)
	copy(cursor, g.inPtr[:b.n])
	for _, e := range b.edges {
		g.inList[cursor[e.to]] = e.from
		cursor[e.to]++
	}
	return g
}

// Graph is an immutable directed graph in CSR form. Node IDs are dense in
// [0, NumNodes). Out(u) lists successors sorted ascending; In(u) lists
// predecessors sorted ascending. Graph methods are safe for concurrent
// readers.
type Graph struct {
	n       int
	outPtr  []uint64
	outList []ids.UserID
	inPtr   []uint64
	inList  []ids.UserID
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of (deduplicated) directed edges.
func (g *Graph) NumEdges() int { return len(g.outList) }

// Out returns the successors of u. The returned slice is shared storage
// and must not be modified.
func (g *Graph) Out(u ids.UserID) []ids.UserID {
	return g.outList[g.outPtr[u]:g.outPtr[u+1]]
}

// In returns the predecessors of u. The returned slice is shared storage
// and must not be modified.
func (g *Graph) In(u ids.UserID) []ids.UserID {
	return g.inList[g.inPtr[u]:g.inPtr[u+1]]
}

// OutDegree returns len(Out(u)) without materializing the slice header.
func (g *Graph) OutDegree(u ids.UserID) int {
	return int(g.outPtr[u+1] - g.outPtr[u])
}

// InDegree returns len(In(u)).
func (g *Graph) InDegree(u ids.UserID) int {
	return int(g.inPtr[u+1] - g.inPtr[u])
}

// DegreeStats summarizes the degree distribution of a graph.
type DegreeStats struct {
	AvgOut, AvgIn float64
	MaxOut, MaxIn int
}

// Degrees computes summary degree statistics.
func (g *Graph) Degrees() DegreeStats {
	var s DegreeStats
	for u := 0; u < g.n; u++ {
		o, i := g.OutDegree(ids.UserID(u)), g.InDegree(ids.UserID(u))
		if o > s.MaxOut {
			s.MaxOut = o
		}
		if i > s.MaxIn {
			s.MaxIn = i
		}
	}
	if g.n > 0 {
		s.AvgOut = float64(g.NumEdges()) / float64(g.n)
		s.AvgIn = s.AvgOut
	}
	return s
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d}", g.n, g.NumEdges())
}
