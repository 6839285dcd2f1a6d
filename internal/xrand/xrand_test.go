package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 equal values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(7)
	f := a.Fork()
	// The fork must not replay the parent stream.
	av, fv := a.Uint64(), f.Uint64()
	if av == fv {
		t.Fatalf("fork mirrors parent: %d", av)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("value %d never sampled in 10000 draws", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestParetoBounds(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.5, 1, 100)
		if v < 1-1e-9 || v > 100+1e-9 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	r := New(6)
	small, large := 0, 0
	for i := 0; i < 100000; i++ {
		v := r.Pareto(1.2, 1, 10000)
		if v < 2 {
			small++
		}
		if v > 100 {
			large++
		}
	}
	if small < 50000 {
		t.Errorf("expected most mass near the lower bound, got %d/100000 below 2", small)
	}
	if large == 0 {
		t.Error("expected a heavy tail with some samples > 100")
	}
}

func TestExpMean(t *testing.T) {
	r := New(8)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Errorf("Exp(10) sample mean %v, want ≈10", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(13)
	check := func(n, k int) {
		s := r.Sample(n, k)
		if len(s) != k {
			t.Fatalf("Sample(%d,%d) returned %d items", n, k, len(s))
		}
		seen := map[int]struct{}{}
		for _, v := range s {
			if v < 0 || v >= n {
				t.Fatalf("sample value %d out of [0,%d)", v, n)
			}
			if _, dup := seen[v]; dup {
				t.Fatalf("duplicate %d in Sample(%d,%d)", v, n, k)
			}
			seen[v] = struct{}{}
		}
	}
	check(10, 10)  // dense path
	check(100, 30) // dense path
	check(100000, 10)
}

// Property: Sample always returns k distinct in-range values.
func TestSampleProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]struct{}{}
		for _, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if _, dup := seen[v]; dup {
				return false
			}
			seen[v] = struct{}{}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(14)
	a := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range a {
		sum += v
	}
	r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	got := 0
	for _, v := range a {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed elements: %v", a)
	}
}
