package propagation

import (
	"math"

	"repro/internal/epoch"
	"repro/internal/ids"
	"repro/internal/wgraph"
)

// TweetState is the persistent, sparse propagation state of one tweet:
// the current share probabilities of every user the propagation has
// touched, plus the pinned seed set. It enables incremental propagation —
// when a new sharer arrives, only the part of the similarity graph whose
// scores actually change is recomputed, instead of re-running the fixpoint
// from the full seed set.
//
// Correctness: the propagation operator is monotone in the seed set (all
// weights are non-negative), so re-propagating from the newly changed
// nodes with the previous scores as the starting point converges to the
// same fixpoint Algorithm 1 reaches from scratch; the package tests
// verify the equivalence.
//
// TweetState has no lock of its own: its owner serializes every AddSeeds
// and every read of P/Changed that may overlap one (simgraph.Recommender
// holds its mutex across both).
type TweetState struct {
	P       map[ids.UserID]float64
	Seeds   map[ids.UserID]struct{}
	Changed []ids.UserID // users whose score changed in the last call
}

// NewTweetState returns empty per-tweet propagation state.
func NewTweetState() *TweetState {
	return &TweetState{
		P:     make(map[ids.UserID]float64),
		Seeds: make(map[ids.UserID]struct{}),
	}
}

// Incremental runs incremental propagations over one similarity graph.
// It owns scratch shared across tweets and is not safe for concurrent
// use: one writer owns it (simgraph.Recommender keeps one per graph).
//
// The hot loop runs entirely on epoch-stamped dense scratch (package epoch):
// AddSeeds scatters the sparse TweetState into dense arrays once, so the
// per-edge influencer probe inside recompute is an array load instead of
// a map lookup, and changed users are gathered back into the state at the
// end. RefIncremental freezes the previous map-probing implementation as
// the differential baseline.
type Incremental struct {
	cfg Config
	g   wgraph.View

	p       epoch.Vec   // dense view of st.P for the current call
	seed    epoch.Marks // dense view of st.Seeds
	inQ     epoch.Marks // queued-for-recompute marker
	changed epoch.Marks // dedups st.Changed without a per-call map
	queue   []ids.UserID

	// Stats of the last AddSeeds call.
	lastRecomputed  int
	lastRounds      int
	lastMaxFrontier int
	lastBudgetHit   bool
}

// NewIncremental returns an incremental propagator over g.
func NewIncremental(g wgraph.View, cfg Config) *Incremental {
	if cfg.Threshold == nil {
		cfg.Threshold = StaticThreshold(1e-6)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 200
	}
	return &Incremental{cfg: cfg, g: g}
}

// AddSeeds pins the given users to probability 1 in st and propagates the
// change outward. popularity is the tweet's current retweet count (drives
// the dynamic threshold). st.Changed lists every non-seed user whose
// score changed, in discovery order; it is valid until the next AddSeeds
// into st.
func (inc *Incremental) AddSeeds(st *TweetState, seeds []ids.UserID, popularity int) {
	cutoff := inc.cfg.Threshold.Cutoff(popularity)
	st.Changed = st.Changed[:0]
	n := inc.g.NumNodes()
	inc.p.Reset(n)
	inc.seed.Reset(n)
	inc.inQ.Reset(n)
	inc.changed.Reset(n)
	inc.queue = inc.queue[:0]

	// Scatter the sparse state into the dense scratch — O(|st.P|), paid
	// once per call instead of one map probe per visited edge.
	for u, p := range st.P {
		if int(u) < n {
			inc.p.Set(u, p)
		}
	}
	for u := range st.Seeds {
		if int(u) < n {
			inc.seed.Add(u)
		}
	}

	for _, s := range seeds {
		if int(s) >= n {
			continue
		}
		if inc.seed.Has(s) {
			continue // already a seed (or duplicated within this batch)
		}
		inc.seed.Add(s)
		st.Seeds[s] = struct{}{}
		st.P[s] = 1
		inc.p.Set(s, 1)
		inc.enqueueInfluenced(s)
	}

	// Budget: cap total recomputations like the dense algorithm caps
	// iterations; with per-node work this is MaxIterations × a generous
	// frontier width.
	budget := inc.cfg.MaxIterations * 4096
	recomputed, rounds := 0, 0
	roundEnd := len(inc.queue)
	maxFrontier := roundEnd
	if roundEnd > 0 {
		rounds = 1
	}
	head := 0
	for ; head < len(inc.queue) && budget > 0; head++ {
		if head == roundEnd {
			rounds++
			if width := len(inc.queue) - roundEnd; width > maxFrontier {
				maxFrontier = width
			}
			roundEnd = len(inc.queue)
		}
		u := inc.queue[head]
		inc.inQ.Del(u)
		if inc.seed.Has(u) {
			continue
		}
		budget--
		recomputed++
		nv := inc.recompute(u)
		old := inc.p.Get(u)
		delta := math.Abs(nv - old)
		if nv == 0 && old == 0 {
			continue
		}
		inc.p.Set(u, nv)
		if !inc.changed.Has(u) {
			inc.changed.Add(u)
			st.Changed = append(st.Changed, u)
		}
		if delta >= cutoff {
			inc.enqueueInfluenced(u)
		}
	}
	inc.lastRecomputed = recomputed
	inc.lastRounds = rounds
	inc.lastMaxFrontier = maxFrontier
	inc.lastBudgetHit = head < len(inc.queue)

	// Gather: fold the final dense scores of changed users back into the
	// sparse state — one map write per changed user, not per recompute.
	for _, u := range st.Changed {
		st.P[u] = inc.p.Get(u)
	}
}

// LastRecomputed reports how many user-score recomputations the most
// recent AddSeeds performed.
func (inc *Incremental) LastRecomputed() int { return inc.lastRecomputed }

// LastRounds reports the frontier depth (BFS levels entered) of the most
// recent AddSeeds.
func (inc *Incremental) LastRounds() int { return inc.lastRounds }

// LastMaxFrontier reports the widest frontier round (queued users at one
// BFS level) of the most recent AddSeeds — the burst-width signal the
// serving metrics export per propagation.
func (inc *Incremental) LastMaxFrontier() int { return inc.lastMaxFrontier }

// LastBudgetHit reports whether the most recent AddSeeds stopped on its
// recomputation budget (MaxIterations × 4096) with users still queued,
// leaving the state short of the fixpoint.
func (inc *Incremental) LastBudgetHit() bool { return inc.lastBudgetHit }

// recompute evaluates Definition 4.2 for u against the dense scratch.
func (inc *Incremental) recompute(u ids.UserID) float64 {
	to, w := inc.g.Out(u)
	if len(to) == 0 {
		return 0
	}
	var sum float64
	for i, v := range to {
		if pv := inc.p.Get(v); pv != 0 {
			sum += pv * float64(w[i])
		}
	}
	return sum / float64(len(to))
}

func (inc *Incremental) enqueueInfluenced(v ids.UserID) {
	from, _ := inc.g.In(v)
	for _, u := range from {
		if inc.seed.Has(u) || inc.inQ.Has(u) {
			continue
		}
		inc.inQ.Add(u)
		inc.queue = append(inc.queue, u)
	}
}
