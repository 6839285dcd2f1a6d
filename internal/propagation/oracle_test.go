package propagation

import (
	"math"

	"repro/internal/ids"
	"repro/internal/linalg"
	"repro/internal/wgraph"
)

// densePropagate runs the literal Algorithm 1 (full sweeps over V \ D
// until no probability changes by more than tol). It exists as the
// oracle for the tests and the solver ablation; Incremental.AddSeeds is
// the production path.
func densePropagate(g *wgraph.Graph, seeds []ids.UserID, tol float64, maxIter int) ([]float64, int) {
	n := g.NumNodes()
	p := make([]float64, n)
	next := make([]float64, n)
	isSeed := make([]bool, n)
	for _, s := range seeds {
		if int(s) >= n {
			continue // out-of-range seed: ignore, as AddSeeds does
		}
		p[s] = 1
		next[s] = 1
		isSeed[s] = true
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		for u := 0; u < n; u++ {
			if isSeed[u] {
				continue
			}
			to, w := g.Out(ids.UserID(u))
			var sum float64
			for i, v := range to {
				sum += p[v] * float64(w[i])
			}
			var nv float64
			if len(to) > 0 {
				nv = sum / float64(len(to))
			}
			next[u] = nv
			if math.Abs(nv-p[u]) > tol {
				changed = true
			}
		}
		p, next = next, p
		if !changed {
			iters++
			break
		}
	}
	return p, iters
}

// linearSystem builds the §5.2 system Ap = b for the given seeds: identity
// rows for seed users (pinning p = 1) and
//
//	p_u − Σ_{v ∈ Fu} (sim(u,v)/|Fu|)·p_v = 0
//
// for everyone else. The matrix is strictly diagonally dominant by
// construction since sim ≤ 1.
func linearSystem(g *wgraph.Graph, seeds []ids.UserID) (*linalg.CSR, []float64, error) {
	n := g.NumNodes()
	isSeed := make([]bool, n)
	for _, s := range seeds {
		if int(s) >= n {
			continue // out-of-range seed: ignore, as AddSeeds does
		}
		isSeed[s] = true
	}
	b := make([]float64, n)
	var ts []linalg.Triplet
	for u := 0; u < n; u++ {
		ts = append(ts, linalg.Triplet{Row: u, Col: u, Val: 1})
		if isSeed[u] {
			b[u] = 1
			continue
		}
		to, w := g.Out(ids.UserID(u))
		if len(to) == 0 {
			continue
		}
		inv := 1 / float64(len(to))
		for i, v := range to {
			ts = append(ts, linalg.Triplet{Row: u, Col: int(v), Val: -float64(w[i]) * inv})
		}
	}
	a, err := linalg.NewCSRFromTriplets(n, n, ts)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}
