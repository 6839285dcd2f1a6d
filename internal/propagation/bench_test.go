package propagation

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/linalg"
	"repro/internal/wgraph"
	"repro/internal/xrand"
)

// Benchmarks comparing the epoch-stamped kernel against the frozen
// reference implementation (reference.go), plus the DESIGN.md §5 solver
// and threshold ablations. CI runs these once (-benchtime=1x) as a smoke
// check; `go test -bench BenchmarkAddSeeds ./internal/propagation`
// measures the kernel-vs-reference ratio.

const (
	benchNodes = 20000
	benchDeg   = 8
)

func benchSeeds(n, count int, seed uint64) []ids.UserID {
	rng := xrand.New(seed)
	out := make([]ids.UserID, count)
	for i := range out {
		out[i] = ids.UserID(rng.Intn(n))
	}
	return out
}

// BenchmarkAddSeedsKernel / Ref: a streaming replay — every iteration
// retires one tweet state and grows it seed by seed, the pattern Observe
// drives. The reference pays one map probe per visited edge; the kernel
// scatters once and probes arrays.
func benchAddSeeds[S any](b *testing.B, newState func() S, add func(st S, seeds []ids.UserID, pop int)) {
	b.Helper()
	seeds := benchSeeds(benchNodes, 16, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newState()
		for j, s := range seeds {
			add(st, []ids.UserID{s}, j+1)
		}
	}
}

func BenchmarkAddSeedsKernel(b *testing.B) {
	g := randomSimGraph(benchNodes, benchDeg, 1)
	inc := NewIncremental(g, Config{Threshold: StaticThreshold(1e-6), MaxIterations: 200})
	benchAddSeeds(b, NewTweetState, inc.AddSeeds)
}

func BenchmarkAddSeedsRef(b *testing.B) {
	g := randomSimGraph(benchNodes, benchDeg, 1)
	inc := NewRefIncremental(g, Config{Threshold: StaticThreshold(1e-6), MaxIterations: 200})
	benchAddSeeds(b, NewRefState, inc.AddSeeds)
}

// Ablations (DESIGN.md §5). The solver benchmarks reach the same fixpoint
// five ways on one synthetic graph: the production frontier kernel, the
// literal dense sweeps, and the three linalg solvers over the §5.2
// system. The threshold benchmarks report how many users one
// propagation recomputes under each cutoff.

const ablationNodes = 2000

func ablationGraphSeeds() (*wgraph.Graph, []ids.UserID) {
	return randomSimGraph(ablationNodes, benchDeg, 4), benchSeeds(ablationNodes, 5, 5)
}

func BenchmarkAblationSolverFrontier(b *testing.B) {
	g, seeds := ablationGraphSeeds()
	inc := NewIncremental(g, Config{Threshold: StaticThreshold(1e-9), MaxIterations: 500})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.AddSeeds(NewTweetState(), seeds, len(seeds))
	}
}

func BenchmarkAblationSolverDense(b *testing.B) {
	g, seeds := ablationGraphSeeds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		densePropagate(g, seeds, 1e-9, 500)
	}
}

func benchLinearSolve(b *testing.B, solve func(a *linalg.CSR, rhs []float64) error) {
	b.Helper()
	g, seeds := ablationGraphSeeds()
	a, rhs, err := linearSystem(g, seeds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSolverJacobi(b *testing.B) {
	benchLinearSolve(b, func(a *linalg.CSR, rhs []float64) error {
		_, _, err := linalg.Jacobi(a, rhs, nil, 1e-9, 2000)
		return err
	})
}

func BenchmarkAblationSolverGaussSeidel(b *testing.B) {
	benchLinearSolve(b, func(a *linalg.CSR, rhs []float64) error {
		_, _, err := linalg.GaussSeidel(a, rhs, nil, 1e-9, 2000)
		return err
	})
}

func BenchmarkAblationSolverSOR(b *testing.B) {
	benchLinearSolve(b, func(a *linalg.CSR, rhs []float64) error {
		_, _, err := linalg.SOR(a, rhs, nil, 1.2, 1e-9, 2000)
		return err
	})
}

func BenchmarkAblationThresholdNone(b *testing.B)   { benchThreshold(b, StaticThreshold(0)) }
func BenchmarkAblationThresholdStatic(b *testing.B) { benchThreshold(b, StaticThreshold(1e-4)) }
func BenchmarkAblationThresholdDynamic(b *testing.B) {
	benchThreshold(b, NewDynamicThreshold())
}

func benchThreshold(b *testing.B, th Threshold) {
	g, seeds := ablationGraphSeeds()
	inc := NewIncremental(g, Config{Threshold: th, MaxIterations: 500})
	b.ResetTimer()
	recomputed := 0
	for i := 0; i < b.N; i++ {
		inc.AddSeeds(NewTweetState(), seeds, 50) // popularity 50: dynamic cutoff bites
		recomputed = inc.LastRecomputed()
	}
	b.ReportMetric(float64(recomputed), "recomputed")
}
