package xrand

import (
	"math"
	"testing"
)

func TestZipfRange(t *testing.T) {
	for _, s := range []float64{0.8, 1.0, 1.2, 2.0} {
		r := New(1)
		z := NewZipf(r, 50, s)
		for i := 0; i < 20000; i++ {
			k := z.Rank()
			if k < 1 || k > 50 {
				t.Fatalf("s=%v: rank %d out of [1,50]", s, k)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank 1 should dominate, and frequency should decay with rank.
	r := New(2)
	z := NewZipf(r, 100, 1.5)
	counts := make([]int, 101)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank()]++
	}
	if counts[1] < counts[2] || counts[2] < counts[5] || counts[5] < counts[20] {
		t.Errorf("zipf counts not decaying: c1=%d c2=%d c5=%d c20=%d",
			counts[1], counts[2], counts[5], counts[20])
	}
	// For s=1.5, P(1)/P(2) = 2^1.5 ≈ 2.83.
	ratio := float64(counts[1]) / float64(counts[2])
	if math.Abs(ratio-2.83) > 0.5 {
		t.Errorf("P(1)/P(2) = %.2f, want ≈2.83", ratio)
	}
}

func TestZipfRejectionMatchesTable(t *testing.T) {
	// The rejection path (s>1, large n) and the table path (forced via
	// small n) must produce comparable head probabilities.
	const s = 1.4
	head := func(z *Zipf, n int) float64 {
		c := 0
		for i := 0; i < n; i++ {
			if z.Rank() == 1 {
				c++
			}
		}
		return float64(c) / float64(n)
	}
	rejection := NewZipf(New(3), 1000, s) // rejection path
	if rejection.cdf != nil {
		t.Fatal("expected rejection sampler for n=1000, s=1.4")
	}
	table := &Zipf{rng: New(4), n: 1000, s: s}
	// Force the table construction.
	tz := NewZipf(New(4), 32, s) // table path for small n
	if tz.cdf == nil {
		t.Fatal("expected table sampler for n=32")
	}
	_ = table
	p1 := head(rejection, 100000)
	// Analytic P(1) = 1/H where H = Σ k^-s.
	var h float64
	for k := 1; k <= 1000; k++ {
		h += math.Pow(float64(k), -s)
	}
	want := 1 / h
	if math.Abs(p1-want) > 0.02 {
		t.Errorf("rejection P(1) = %.4f, want ≈%.4f", p1, want)
	}
}

func TestNewZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(rng, 0, 1) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestWeightedChoiceDistribution(t *testing.T) {
	r := New(5)
	wc := NewWeightedChoice(r, []float64{1, 3, 6})
	counts := make([]int, 3)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[wc.Choose()]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("weight %d: frequency %.3f, want %.3f", i, got, want)
		}
	}
}

func TestWeightedChoiceZeroWeightNeverChosen(t *testing.T) {
	r := New(6)
	wc := NewWeightedChoice(r, []float64{0, 1, 0})
	for i := 0; i < 10000; i++ {
		if v := wc.Choose(); v != 1 {
			t.Fatalf("chose index %d with zero weight", v)
		}
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	cases := []struct {
		name string
		w    []float64
	}{
		{"empty", nil},
		{"negative", []float64{1, -1}},
		{"zero-sum", []float64{0, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWeightedChoice(%v) did not panic", c.w)
				}
			}()
			NewWeightedChoice(New(1), c.w)
		})
	}
}
