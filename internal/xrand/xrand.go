// Package xrand provides a small, fast, deterministic random number
// generator plus the heavy-tailed samplers the synthetic Twitter generator
// needs (Zipf, bounded Pareto, weighted choice).
//
// math/rand would work, but a self-contained splitmix64/xoshiro generator
// guarantees the same stream on every platform and Go release, which is
// essential for byte-identical reproducible datasets.
package xrand

import "math"

// RNG is a xoshiro256** pseudo-random generator seeded via splitmix64.
// The zero value is not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	return r
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Fork derives an independent generator from the current stream. Forked
// streams let parallel workers each own a deterministic sub-stream.
func (r *RNG) Fork() *RNG { return New(r.Uint64()) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias negligible for n << 2^64
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponential sample with the given mean. Mean must be > 0.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a bounded Pareto sample in [lo, hi] with tail exponent
// alpha > 0. The distribution density is proportional to x^-(alpha+1).
func (r *RNG) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("xrand: Pareto requires 0 < lo < hi")
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Shuffle permutes the n elements addressed by swap uniformly at random
// (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Sample returns k distinct integers drawn uniformly from [0, n) in
// selection order. It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		panic("xrand: Sample with k > n")
	}
	if k*4 >= n { // dense case: partial Fisher–Yates
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			p[i], p[j] = p[j], p[i]
		}
		return p[:k:k]
	}
	// Sparse case: rejection sampling with a set.
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
