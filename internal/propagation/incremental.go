package propagation

import (
	"math"

	"repro/internal/epoch"
	"repro/internal/ids"
	"repro/internal/wgraph"
)

// TweetState is the persistent, sparse propagation state of one tweet:
// the current share probability of every user the propagation has
// touched, and which of them are pinned seeds. It enables incremental
// propagation — when a new sharer arrives, only the part of the
// similarity graph whose scores actually change is recomputed, instead of
// re-running the fixpoint from the full seed set.
//
// The state is flat: slot i holds user User(i) with score Score(i), and
// IsSeed(i) says whether that user is pinned. Slots are appended in
// first-touch order and never move, so a slot names one user's score for
// the state's lifetime (simgraph's per-user posting lists hold slots).
//
// Correctness: the propagation operator is monotone in the seed set (all
// weights are non-negative), so re-propagating from the newly changed
// nodes with the previous scores as the starting point converges to the
// same fixpoint Algorithm 1 reaches from scratch; the package tests
// verify the equivalence. The same monotonicity means no slot's score
// ever decreases (TestScoresNeverDecrease).
//
// TweetState has no lock of its own: its owner serializes every AddSeeds
// against every read that may overlap one (simgraph.Recommender holds its
// write lock across AddSeeds and its read lock across reads).
type TweetState struct {
	users []ids.UserID
	p     []float64
	seed  []bool
	// Changed lists the users whose score changed in the last AddSeeds.
	Changed []ids.UserID
}

// NewTweetState returns empty per-tweet propagation state.
func NewTweetState() *TweetState { return &TweetState{} }

// Len returns the number of slots: every user the tweet ever touched.
func (st *TweetState) Len() int { return len(st.users) }

// User returns the user in slot i.
func (st *TweetState) User(i int) ids.UserID { return st.users[i] }

// Score returns the share probability in slot i (1 for a seed).
func (st *TweetState) Score(i int) float64 { return st.p[i] }

// IsSeed reports whether slot i's user is a pinned seed.
func (st *TweetState) IsSeed(i int) bool { return st.seed[i] }

// Release drops the state's vectors; the state reads as empty afterwards.
// Owners call it when the tweet leaves the freshness window, so memory
// follows the live window even if a stale pointer survives.
func (st *TweetState) Release() { *st = TweetState{} }

// push appends a slot for u and returns its index.
func (st *TweetState) push(u ids.UserID, p float64, seed bool) int32 {
	st.users = append(st.users, u)
	st.p = append(st.p, p)
	st.seed = append(st.seed, seed)
	return int32(len(st.users) - 1)
}

// Incremental runs incremental propagations over one similarity graph.
// It owns scratch shared across tweets and is not safe for concurrent
// use: one writer owns it (simgraph.Recommender keeps one per graph).
//
// The hot loop runs entirely on epoch-stamped dense scratch (package epoch):
// AddSeeds scatters the flat TweetState into dense arrays once, so the
// per-edge influencer probe inside recompute is an array load, and the
// changed users' final scores are gathered back into their slots at the
// end. RefIncremental freezes the earlier map-probing implementation as
// the differential baseline.
type Incremental struct {
	cfg Config
	g   *wgraph.Graph

	p       epoch.Vec   // dense view of the state's scores for the current call
	slot    epoch.Index // each in-state user's slot in the state
	seed    epoch.Marks // dense view of the seed flags
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
func NewIncremental(g *wgraph.Graph, cfg Config) *Incremental {
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
// into st. Users new to st are appended after its existing slots, seeds
// first, so the slots from the old Len() on are exactly the users this
// call touched for the first time.
func (inc *Incremental) AddSeeds(st *TweetState, seeds []ids.UserID, popularity int) {
	cutoff := inc.cfg.Threshold.Cutoff(popularity)
	st.Changed = st.Changed[:0]
	n := inc.g.NumNodes()
	inc.p.Reset(n)
	inc.slot.Reset(n)
	inc.seed.Reset(n)
	inc.inQ.Reset(n)
	inc.changed.Reset(n)
	inc.queue = inc.queue[:0]

	// Scatter the flat state into the dense scratch: one slice pass,
	// paid once per call instead of one probe per visited edge.
	for i, u := range st.users {
		if int(u) >= n {
			continue
		}
		inc.p.Set(u, st.p[i])
		inc.slot.Set(u, int32(i))
		if st.seed[i] {
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
		inc.p.Set(s, 1)
		if i, ok := inc.slot.Get(s); ok {
			st.p[i], st.seed[i] = 1, true
		} else {
			inc.slot.Set(s, st.push(s, 1, true))
		}
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

	// Gather: write the final dense scores of changed users into their
	// slots; users the state never held are appended as the new tail.
	for _, u := range st.Changed {
		if i, ok := inc.slot.Get(u); ok {
			st.p[i] = inc.p.Get(u)
		} else {
			st.push(u, inc.p.Get(u), false)
		}
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
