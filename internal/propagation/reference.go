package propagation

import (
	"math"

	"repro/internal/ids"
	"repro/internal/wgraph"
)

// This file freezes the pre-kernel incremental propagator and the
// map-based per-tweet state it ran on. It is correct but pays avoidable
// per-call costs: RefIncremental probes the RefState map once per edge
// and allocates a changed-set map per call. The epoch-stamped kernel and
// the flat TweetState in incremental.go replace both on the production
// path; they stay as the differential-test oracle and the baseline
// BenchmarkAddSeedsRef measures the kernel against, exactly as pairwise
// similarity.Sim anchors SimBatch.

// RefState is the map-based per-tweet state RefIncremental propagates
// into: every touched user's score, the seed set, and the users whose
// score changed in the last call.
type RefState struct {
	P       map[ids.UserID]float64
	Seeds   map[ids.UserID]struct{}
	Changed []ids.UserID
}

// NewRefState returns empty reference state.
func NewRefState() *RefState {
	return &RefState{
		P:     make(map[ids.UserID]float64),
		Seeds: make(map[ids.UserID]struct{}),
	}
}

// RefIncremental is the frozen map-probing incremental propagator: the
// innermost recompute loop looks every influencer up in the RefState
// map, and each AddSeeds call allocates a fresh changed-set map.
type RefIncremental struct {
	cfg   Config
	g     *wgraph.Graph
	inQ   map[ids.UserID]struct{}
	queue []ids.UserID
}

// NewRefIncremental returns the reference incremental propagator over g.
func NewRefIncremental(g *wgraph.Graph, cfg Config) *RefIncremental {
	if cfg.Threshold == nil {
		cfg.Threshold = StaticThreshold(1e-6)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 200
	}
	return &RefIncremental{
		cfg: cfg,
		g:   g,
		inQ: make(map[ids.UserID]struct{}),
	}
}

// AddSeeds is the pre-kernel implementation of Incremental.AddSeeds. It
// reaches the same fixpoint; only st.Changed's order differs (map
// iteration order rather than discovery order).
func (inc *RefIncremental) AddSeeds(st *RefState, seeds []ids.UserID, popularity int) {
	cutoff := inc.cfg.Threshold.Cutoff(popularity)
	st.Changed = st.Changed[:0]
	clear(inc.inQ)
	inc.queue = inc.queue[:0]

	n := inc.g.NumNodes()
	for _, s := range seeds {
		if int(s) >= n {
			continue
		}
		if _, dup := st.Seeds[s]; dup {
			continue
		}
		st.Seeds[s] = struct{}{}
		st.P[s] = 1
		inc.enqueueInfluenced(st, s)
	}

	budget := inc.cfg.MaxIterations * 4096
	changed := make(map[ids.UserID]struct{})
	for head := 0; head < len(inc.queue) && budget > 0; head++ {
		u := inc.queue[head]
		delete(inc.inQ, u)
		if _, isSeed := st.Seeds[u]; isSeed {
			continue
		}
		budget--
		nv := inc.recompute(st, u)
		old := st.P[u]
		delta := math.Abs(nv - old)
		if nv == 0 && old == 0 {
			continue
		}
		st.P[u] = nv
		changed[u] = struct{}{}
		if delta >= cutoff {
			inc.enqueueInfluenced(st, u)
		}
	}
	for u := range changed {
		st.Changed = append(st.Changed, u)
	}
}

func (inc *RefIncremental) recompute(st *RefState, u ids.UserID) float64 {
	to, w := inc.g.Out(u)
	if len(to) == 0 {
		return 0
	}
	var sum float64
	for i, v := range to {
		if pv, ok := st.P[v]; ok && pv != 0 {
			sum += pv * float64(w[i])
		}
	}
	return sum / float64(len(to))
}

func (inc *RefIncremental) enqueueInfluenced(st *RefState, v ids.UserID) {
	from, _ := inc.g.In(v)
	for _, u := range from {
		if _, isSeed := st.Seeds[u]; isSeed {
			continue
		}
		if _, queued := inc.inQ[u]; queued {
			continue
		}
		inc.inQ[u] = struct{}{}
		inc.queue = append(inc.queue, u)
	}
}
