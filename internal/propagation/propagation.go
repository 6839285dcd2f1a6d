// Package propagation implements the paper's §5 propagation algorithm:
// given the similarity graph and the set D of users who retweeted a tweet,
// it computes for every user u the probability that u would also share it,
//
//	p(u) = ( Σ_{v ∈ Fu} p(v)·sim(u,v) ) / |Fu|        (u ∉ D; p ≡ 1 on D)
//
// iterated to fixpoint (Algorithm 1). Because the associated linear system
// is strictly diagonally dominant the iteration converges (§5.3).
//
// Incremental.AddSeeds is the one production kernel: every observed
// retweet and every postponed batch runs through it, and so does the
// Engine's one-shot PropagateScores (AddSeeds on a fresh TweetState). The
// tests pin it to two oracles: densePropagate, the literal Algorithm 1
// with full sweeps over V, and linearSystem, the §5.2 system Ap = b that
// package linalg solves with Jacobi/Gauss–Seidel/SOR.
//
// The kernel implements the paper's optimizations:
//
//   - frontier scheduling: only users whose influencers changed are
//     recomputed, instead of sweeping all of V each iteration;
//   - a static propagation threshold β (score deltas below β do not
//     propagate further);
//   - the dynamic threshold γ(t) = m(t)^p / (k^p + m(t)^p) that raises the
//     cutoff for already-popular tweets, spending compute on fresh content;
//   - postponed computation: batching retweets per tweet and propagating
//     on a time-frame schedule (see Scheduler).
package propagation

import "math"

// Threshold decides the minimum score delta that keeps propagating, given
// the current popularity (retweet count) of the tweet being processed.
type Threshold interface {
	// Cutoff returns the propagation threshold for a tweet with the given
	// number of retweets so far.
	Cutoff(popularity int) float64
}

// StaticThreshold is the paper's first optimization: a fixed β.
type StaticThreshold float64

// Cutoff returns the fixed threshold.
func (b StaticThreshold) Cutoff(int) float64 { return float64(b) }

// DynamicThreshold is the paper's popularity-driven cutoff
//
//	γ(t) = m^p / (k^p + m^p), scaled into [MinBeta, MaxBeta].
//
// Unpopular (fresh) tweets get a near-MinBeta cutoff and therefore deep,
// cheap-to-serve propagation; viral tweets get a near-MaxBeta cutoff that
// stops the (expensive, redundant) propagation early.
type DynamicThreshold struct {
	K, P             float64 // sigmoid midpoint and steepness; both > 0
	MinBeta, MaxBeta float64 // output range
}

// NewDynamicThreshold returns the calibrated dynamic threshold used in the
// experiments.
func NewDynamicThreshold() DynamicThreshold {
	return DynamicThreshold{K: 20, P: 2, MinBeta: 1e-6, MaxBeta: 1e-2}
}

// Gamma returns the raw γ(t) value in [0,1] for a popularity m.
func (d DynamicThreshold) Gamma(m int) float64 {
	if m <= 0 {
		return 0
	}
	mp := math.Pow(float64(m), d.P)
	return mp / (math.Pow(d.K, d.P) + mp)
}

// Cutoff maps γ into the [MinBeta, MaxBeta] range.
func (d DynamicThreshold) Cutoff(m int) float64 {
	return d.MinBeta + (d.MaxBeta-d.MinBeta)*d.Gamma(m)
}

// Config tunes an Incremental.
type Config struct {
	// Threshold stops propagating score deltas below the cutoff. Nil
	// defaults to StaticThreshold(1e-6).
	Threshold Threshold
	// MaxIterations bounds the fixpoint loop as a safety net; convergence
	// is guaranteed but the bound protects against pathological inputs.
	MaxIterations int
}

// MinScore is the floor below which a one-shot result drops a user
// (Engine.PropagateScores keeps only scores above it). AddSeeds itself
// keeps everything touched.
const MinScore = 1e-9

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Threshold:     StaticThreshold(1e-6),
		MaxIterations: 200,
	}
}
