// Package propagation implements the paper's §5 propagation algorithm:
// given the similarity graph and the set D of users who retweeted a tweet,
// it computes for every user u the probability that u would also share it,
//
//	p(u) = ( Σ_{v ∈ Fu} p(v)·sim(u,v) ) / |Fu|        (u ∉ D; p ≡ 1 on D)
//
// iterated to fixpoint (Algorithm 1). Because the associated linear system
// is strictly diagonally dominant the iteration converges (§5.3); package
// linalg exposes the same computation as a Jacobi/Gauss–Seidel/SOR solve
// and the tests verify both routes agree.
//
// The engine implements the paper's optimizations:
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

import (
	"math"
	"slices"

	"repro/internal/epoch"
	"repro/internal/ids"
	"repro/internal/linalg"
	"repro/internal/wgraph"
)

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

// Config tunes a Propagator.
type Config struct {
	// Threshold stops propagating score deltas below the cutoff. Nil
	// defaults to StaticThreshold(1e-6).
	Threshold Threshold
	// MaxIterations bounds the fixpoint loop as a safety net; convergence
	// is guaranteed but the bound protects against pathological inputs.
	MaxIterations int
	// MinScore drops result entries below this value to keep result sets
	// sparse. Zero keeps everything touched.
	MinScore float64
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Threshold:     StaticThreshold(1e-6),
		MaxIterations: 200,
		MinScore:      1e-9,
	}
}

// Propagator runs Algorithm 1 over a similarity-graph view. A Propagator
// owns reusable scratch buffers, so it is NOT safe for concurrent use;
// create one per worker goroutine.
//
// The dense scratch is epoch-stamped (see package epoch): starting a call
// bumps an epoch counter instead of clearing three |V|-sized arrays, and
// a touched-list records exactly the users whose score was written, so
// both the per-call reset and the result collection cost O(touched)
// rather than O(|V|). RefPropagator freezes the previous dense-reset
// implementation as the differential baseline.
type Propagator struct {
	cfg  Config
	g    wgraph.View
	p    epoch.Vec   // current probabilities; unstamped slots read 0
	seed epoch.Marks // users in D
	inQ  epoch.Marks // queued-for-recompute marker
	// queue/spare double-buffer the frontier rounds so steady state
	// allocates nothing; touched lists every user whose score was written
	// this call (seeds included), for O(touched) result collection.
	queue   []ids.UserID
	spare   []ids.UserID
	touched []ids.UserID
	// Stats of the last run.
	lastIters       int
	lastTouched     int
	lastMaxFrontier int
}

// New returns a propagator over the given similarity graph view.
func New(g wgraph.View, cfg Config) *Propagator {
	if cfg.Threshold == nil {
		cfg.Threshold = StaticThreshold(1e-6)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 200
	}
	return &Propagator{cfg: cfg, g: g}
}

// Rebind points the propagator at a different similarity-graph view. It
// lets a pooled propagator survive graph refreshes (the Engine keeps a
// sync.Pool of per-worker propagators across RefreshGraph calls); the
// epoch-stamped scratch regrows on the next Propagate, which never trusts
// the size the view had at New or Rebind time.
func (pr *Propagator) Rebind(g wgraph.View) {
	pr.g = g
}

// Result holds the sparse outcome of one propagation: users (other than
// the seeds) with their predicted share probability.
type Result struct {
	Users  []ids.UserID
	Scores []float64
}

// Len returns the number of scored users.
func (r *Result) Len() int { return len(r.Users) }

// Propagate computes share probabilities for a tweet that the users in
// seeds have retweeted, where popularity is the tweet's current retweet
// count (drives the dynamic threshold). The returned Result excludes the
// seeds themselves.
//
// The frontier version is observationally equivalent to Algorithm 1's
// full sweeps: a user's score can only change when one of its influencers'
// scores changed, so sweeping only those users skips provably-unchanged
// rows. Tests cross-check against the dense Jacobi solve.
func (pr *Propagator) Propagate(seeds []ids.UserID, popularity int) Result {
	cutoff := pr.cfg.Threshold.Cutoff(popularity)
	n := pr.g.NumNodes()

	// O(1) reset: bump the epochs instead of clearing dense state. The
	// scratch regrows here if the view grew (an Overlay whose base was
	// swapped, or a Rebind to a bigger graph); a shrunken view is safe
	// because stale tail slots are unstamped and read as 0.
	pr.p.Reset(n)
	pr.seed.Reset(n)
	pr.inQ.Reset(n)
	pr.queue = pr.queue[:0]
	pr.touched = pr.touched[:0]

	for _, s := range seeds {
		if int(s) >= n {
			continue
		}
		pr.setP(s, 1)
		pr.seed.Add(s)
	}

	// Initial frontier: users influenced by a seed (in-neighbours in the
	// similarity graph: edge u→v means v influences u, so u ∈ In-list of
	// v? No — u→v is stored as out-edge of u; the influenced users of v
	// are those with an out-edge to v, i.e. In(v) under wgraph's reverse
	// index).
	for _, s := range seeds {
		if int(s) >= n {
			continue
		}
		pr.enqueueInfluenced(s)
	}

	iters := 0
	touched := 0
	maxFrontier := 0
	// Process in rounds so the iteration count is comparable with the
	// dense algorithm's.
	for len(pr.queue) > 0 && iters < pr.cfg.MaxIterations {
		iters++
		round := pr.queue
		if len(round) > maxFrontier {
			maxFrontier = len(round)
		}
		pr.queue = pr.spare[:0]
		for _, u := range round {
			pr.inQ.Del(u)
		}
		for _, u := range round {
			if pr.seed.Has(u) {
				continue
			}
			nv := pr.recompute(u)
			delta := math.Abs(nv - pr.p.Get(u))
			pr.setP(u, nv)
			touched++
			if delta >= cutoff {
				pr.enqueueInfluenced(u)
			}
		}
		pr.spare = round[:0]
	}
	pr.lastIters = iters
	pr.lastTouched = touched
	pr.lastMaxFrontier = maxFrontier

	// O(touched) result collection. Sorting keeps the ascending-user
	// order the previous O(|V|) sweep produced, so results stay
	// deterministic and byte-comparable across implementations.
	slices.Sort(pr.touched)
	var res Result
	for _, u := range pr.touched {
		if pr.seed.Has(u) || pr.p.Get(u) <= pr.cfg.MinScore {
			continue
		}
		res.Users = append(res.Users, u)
		res.Scores = append(res.Scores, pr.p.Get(u))
	}
	return res
}

// setP writes u's score, maintaining the touched-list.
func (pr *Propagator) setP(u ids.UserID, x float64) {
	if pr.p.Set(u, x) {
		pr.touched = append(pr.touched, u)
	}
}

// recompute evaluates Definition 4.2 for user u.
func (pr *Propagator) recompute(u ids.UserID) float64 {
	to, w := pr.g.Out(u)
	if len(to) == 0 {
		return 0
	}
	var sum float64
	for i, v := range to {
		if pv := pr.p.Get(v); pv != 0 {
			sum += pv * float64(w[i])
		}
	}
	return sum / float64(len(to))
}

// enqueueInfluenced queues every user influenced by v (those whose Fu
// contains v), skipping seeds and already-queued users.
func (pr *Propagator) enqueueInfluenced(v ids.UserID) {
	from, _ := pr.g.In(v)
	for _, u := range from {
		if pr.seed.Has(u) || pr.inQ.Has(u) {
			continue
		}
		pr.inQ.Add(u)
		pr.queue = append(pr.queue, u)
	}
}

// LastIterations reports the round count of the most recent Propagate.
func (pr *Propagator) LastIterations() int { return pr.lastIters }

// LastTouched reports how many user recomputations the most recent
// Propagate performed.
func (pr *Propagator) LastTouched() int { return pr.lastTouched }

// LastMaxFrontier reports the widest frontier round of the most recent
// Propagate.
func (pr *Propagator) LastMaxFrontier() int { return pr.lastMaxFrontier }

// DensePropagate runs the literal Algorithm 1 (full sweeps over V \ D
// until no probability changes by more than tol). It exists as the
// reference implementation for tests and the solver ablation; the
// frontier version above is the production path.
func DensePropagate(g wgraph.View, seeds []ids.UserID, tol float64, maxIter int) ([]float64, int) {
	n := g.NumNodes()
	p := make([]float64, n)
	next := make([]float64, n)
	isSeed := make([]bool, n)
	for _, s := range seeds {
		if int(s) >= n {
			continue // out-of-range seed: ignore, as Propagate does
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

// LinearSystem builds the §5.2 system Ap = b for the given seeds: identity
// rows for seed users (pinning p = 1) and
//
//	p_u − Σ_{v ∈ Fu} (sim(u,v)/|Fu|)·p_v = 0
//
// for everyone else. The matrix is strictly diagonally dominant by
// construction since sim ≤ 1.
func LinearSystem(g wgraph.View, seeds []ids.UserID) (*linalg.CSR, []float64, error) {
	n := g.NumNodes()
	isSeed := make([]bool, n)
	for _, s := range seeds {
		if int(s) >= n {
			continue // out-of-range seed: ignore, as Propagate does
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
