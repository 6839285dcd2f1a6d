package xrand

import (
	"math"
	"sort"
)

// Zipf samples ranks 1..N with P(rank=k) proportional to k^-s using the
// standard rejection method (Devroye), giving O(1) expected time per sample
// without a precomputed table. Exponent s must be > 1 is NOT required here;
// any s > 0 works because N is finite (we fall back to a cumulative table
// for s <= 1 where rejection constants degrade).
type Zipf struct {
	rng *RNG
	n   int
	s   float64

	// Table fallback (used when s <= 1 or n is small).
	cdf []float64

	// Rejection constants (used when s > 1).
	oneMinusS    float64
	hIntegralX1  float64
	hIntegralMax float64
	scale        float64
}

// NewZipf returns a sampler over ranks [1, n] with exponent s > 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("xrand: NewZipf requires n > 0 and s > 0")
	}
	z := &Zipf{rng: rng, n: n, s: s}
	if s > 1 && n > 32 {
		z.oneMinusS = 1 - s
		z.hIntegralX1 = z.hIntegral(1.5) - 1
		z.hIntegralMax = z.hIntegral(float64(n) + 0.5)
		z.scale = z.hIntegralMax - z.hIntegralX1
		return z
	}
	// Cumulative table.
	z.cdf = make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		z.cdf[k-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// hIntegral is the antiderivative of x^-s (rescaled), used by rejection.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a stable series near 0.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a stable series near 0.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Rank returns the next sample in [1, n].
func (z *Zipf) Rank() int {
	if z.cdf != nil {
		u := z.rng.Float64()
		i := sort.SearchFloat64s(z.cdf, u)
		if i >= z.n {
			i = z.n - 1
		}
		return i + 1
	}
	for {
		u := z.hIntegralMax - z.rng.Float64()*z.scale
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= 0.5 || u >= z.hIntegral(k+0.5)-z.h(k) {
			return int(k)
		}
	}
}

// WeightedChoice samples indices in proportion to non-negative weights
// using the alias method: O(n) build, O(1) per sample.
type WeightedChoice struct {
	rng   *RNG
	prob  []float64
	alias []int
}

// NewWeightedChoice builds an alias table for the given weights. Weights
// must be non-negative with a positive sum.
func NewWeightedChoice(rng *RNG, weights []float64) *WeightedChoice {
	n := len(weights)
	if n == 0 {
		panic("xrand: NewWeightedChoice with no weights")
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: negative or NaN weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("xrand: weights sum to zero")
	}
	wc := &WeightedChoice{rng: rng, prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		wc.prob[s] = scaled[s]
		wc.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		wc.prob[i] = 1
	}
	for _, i := range small {
		wc.prob[i] = 1
	}
	return wc
}

// Choose returns a sampled index.
func (wc *WeightedChoice) Choose() int {
	i := wc.rng.Intn(len(wc.prob))
	if wc.rng.Float64() < wc.prob[i] {
		return i
	}
	return wc.alias[i]
}
