package similarity

import "repro/internal/ids"

// SimBatch is the inverted-index similarity kernel behind SimGraph
// construction. Where Sim merges two sorted profiles per pair — costing
// O(Σ_w |Lu|+|Lw|) over a candidate neighbourhood — SimBatch computes
// sim(u, w) for every candidate w in one pass: candidates are marked in
// an epoch-stamped membership array, then u's profile is walked once and
// each tweet's popularity weight is scattered into the accumulator of
// every candidate on its posting list. Total work is
// O(|C| + Σ_{t∈Lu} |retweeters(t)|), shared across the whole candidate
// set instead of paid per pair.
//
// The kernel is exact: per candidate it adds the same float64 weights in
// the same (ascending tweet) order as the pairwise merge, so results are
// bit-identical to Sim. Pairwise Sim therefore remains the reference
// oracle SimBatch is property-tested against.

// BatchScratch holds the reusable per-caller state for SimBatch. The
// zero value is ready to use; the arrays grow on demand and are retained
// across calls, so a worker that owns one scratch performs no steady-
// state allocation. A scratch must not be shared between concurrent
// callers, but any number of goroutines may run SimBatch on the same
// (quiescent) Store with their own scratches.
type BatchScratch struct {
	// epoch stamps candidate membership: stamp[w] == epoch means w is a
	// candidate of the current call, and slot[w] is its index. Bumping
	// the epoch invalidates the whole array in O(1) — no per-call clear.
	epoch uint32
	stamp []uint32
	slot  []int32
	// Per-candidate accumulators: weighted intersection and its size.
	num   []float64
	inter []int32
	// Matched-group spans recorded by SimBatchClustered's directory
	// merge: spans for profile tweet i live in
	// spanStart/spanEnd[spanOff[i]:spanOff[i+1]].
	spanOff   []int32
	spanStart []int32
	spanEnd   []int32
}

// begin prepares the scratch for a call with the given store width and
// candidate count.
func (sc *BatchScratch) begin(numUsers, numCands int) {
	if len(sc.stamp) < numUsers {
		sc.stamp = make([]uint32, numUsers)
		sc.slot = make([]int32, numUsers)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped after 2^32 calls: clear and restart
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	if cap(sc.num) < numCands {
		sc.num = make([]float64, numCands)
		sc.inter = make([]int32, numCands)
	}
	sc.num = sc.num[:numCands]
	sc.inter = sc.inter[:numCands]
}

// SimBatch computes sim(u, w) for every w in candidates, bit-identical
// to calling Sim(u, w) per pair. Results are written into out (grown if
// too small) and returned. sc may be nil for one-off calls; passing a
// reused scratch makes the call allocation-free. The Store must be
// quiescent (no concurrent Observe), as for all read methods.
func (s *Store) SimBatch(u ids.UserID, candidates []ids.UserID, sc *BatchScratch, out []float64) []float64 {
	if cap(out) < len(candidates) {
		out = make([]float64, len(candidates))
	}
	out = out[:len(candidates)]
	if len(candidates) == 0 {
		return out
	}
	pu := s.profiles[u]
	if len(pu) == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	if sc == nil {
		sc = &BatchScratch{}
	}

	// Cost guard: the scatter pass touches every posting-list entry of
	// u's tweets, including users outside the candidate set. When the
	// candidate set is small relative to u's posting mass (viral tweets,
	// short neighbourhoods) the per-pair merges are cheaper — and both
	// paths are bit-identical, so this is purely a performance choice.
	var scatterCost int
	for _, t := range pu {
		scatterCost += len(s.postings[t])
	}
	pairwiseCost := len(candidates) * len(pu)
	for _, w := range candidates {
		pairwiseCost += len(s.profiles[w])
	}
	if scatterCost > pairwiseCost {
		s.mFallback.Inc()
		for i, w := range candidates {
			out[i] = s.Sim(u, w)
		}
		return out
	}
	s.mBatch.Inc()

	sc.begin(len(s.profiles), len(candidates))
	dupes := false
	for i, w := range candidates {
		if sc.stamp[w] == sc.epoch {
			dupes = true // later occurrence wins the slot; fixed up below
		}
		sc.stamp[w] = sc.epoch
		sc.slot[w] = int32(i)
		sc.num[i] = 0
		sc.inter[i] = 0
	}

	// Scatter pass: ascending-tweet walk over u's profile keeps each
	// candidate's float64 additions in the exact order of the pairwise
	// sorted merge.
	for _, t := range pu {
		wt := float64(s.weights[t])
		for _, w := range s.postings[t] {
			if sc.stamp[w] == sc.epoch {
				j := sc.slot[w]
				sc.num[j] += wt
				sc.inter[j]++
			}
		}
	}

	for i, w := range candidates {
		if dupes && sc.slot[w] != int32(i) {
			continue // duplicate candidate: copied from its winning slot below
		}
		var sim float64
		if inter := sc.inter[i]; inter > 0 {
			union := len(pu) + len(s.profiles[w]) - int(inter)
			sim = sc.num[i] / float64(union)
		}
		out[i] = sim
	}
	if dupes {
		for i, w := range candidates {
			out[i] = out[sc.slot[w]]
		}
	}
	return out
}
