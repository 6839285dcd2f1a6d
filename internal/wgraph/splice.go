package wgraph

import (
	"sort"

	"repro/internal/ids"
)

// OutRun is a wholesale replacement for one source user's out-edge list:
// targets sorted ascending by ID with matching weights. An empty run
// (nil To) deletes every out-edge of the user.
type OutRun struct {
	From ids.UserID
	To   []ids.UserID
	W    []float32
}

// SpliceOuts returns a new immutable graph equal to g except that every
// run's source user has its out-edges replaced by the run. This is the
// CSR surgery behind incremental similarity-graph maintenance: where
// NewFromEdges pays a comparison sort over the whole edge set, SpliceOuts
// copies unchanged per-user runs straight out of the old CSR and rebuilds
// the reverse (in-edge) arrays with a counting pass — O(V+E) memory
// traffic, no sort, regardless of how few users changed.
//
// Preconditions: runs sorted by From with no duplicate From, each run's
// To sorted ascending with no duplicates or self-loops, and every From
// and To inside g's node range. appendEdgesFor-style producers satisfy
// all of these; SortRun handles the per-run ordering.
func SpliceOuts(g *Graph, runs []OutRun) *Graph {
	newE := len(g.outTo)
	for _, r := range runs {
		newE += len(r.To) - g.OutDegree(r.From)
	}
	ng := &Graph{
		n:      g.n,
		outPtr: make([]uint64, g.n+1),
		outTo:  make([]ids.UserID, newE),
		outW:   make([]float32, newE),
		inPtr:  make([]uint64, g.n+1),
		inFrom: make([]ids.UserID, newE),
		inW:    make([]float32, newE),
	}
	ri, at := 0, 0
	for u := 0; u < g.n; u++ {
		var to []ids.UserID
		var w []float32
		if ri < len(runs) && runs[ri].From == ids.UserID(u) {
			to, w = runs[ri].To, runs[ri].W
			ri++
		} else {
			to, w = g.Out(ids.UserID(u))
		}
		copy(ng.outTo[at:], to)
		copy(ng.outW[at:], w)
		at += len(to)
		ng.outPtr[u+1] = uint64(at)
	}
	// Reverse CSR: count in-degrees, prefix-sum, then scatter by
	// ascending source so every in-list stays sorted by From — the same
	// ordering NewFromEdges produces.
	for _, v := range ng.outTo {
		ng.inPtr[v+1]++
	}
	for i := 0; i < g.n; i++ {
		ng.inPtr[i+1] += ng.inPtr[i]
	}
	cursor := make([]uint64, g.n)
	copy(cursor, ng.inPtr[:g.n])
	for u := 0; u < g.n; u++ {
		lo, hi := ng.outPtr[u], ng.outPtr[u+1]
		for i := lo; i < hi; i++ {
			v := ng.outTo[i]
			ng.inFrom[cursor[v]] = ids.UserID(u)
			ng.inW[cursor[v]] = ng.outW[i]
			cursor[v]++
		}
	}
	return ng
}

// SortRun orders a run's parallel (To, W) slices ascending by target ID,
// the order SpliceOuts requires.
func SortRun(r OutRun) {
	sort.Sort(&pairSorter{r.To, r.W})
}

type pairSorter struct {
	ids []ids.UserID
	ws  []float32
}

func (p *pairSorter) Len() int           { return len(p.ids) }
func (p *pairSorter) Less(i, j int) bool { return p.ids[i] < p.ids[j] }
func (p *pairSorter) Swap(i, j int) {
	p.ids[i], p.ids[j] = p.ids[j], p.ids[i]
	p.ws[i], p.ws[j] = p.ws[j], p.ws[i]
}
