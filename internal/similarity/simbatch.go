package similarity

import "repro/internal/ids"

// SimBatch is the inverted-index similarity kernel behind SimGraph
// construction. Where Sim merges two sorted profiles per pair — costing
// O(Σ_w |Lu|+|Lw|) over a candidate neighbourhood — SimBatch computes
// sim(u, w) for every candidate w in one pass: u's profile is walked
// once and each tweet's popularity weight is added, with no membership
// test, into the dense per-user accumulator of every user on its
// posting list; the candidates' accumulators are then read and the
// touched entries zeroed. Total work is
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
	// Dense per-user accumulators, indexed by user id: the weighted
	// intersection with the current source and its size. Every entry is
	// zero between calls; a call zeroes exactly what its scatter touched.
	num   []float64
	inter []int32
	// Matched-group spans recorded by SimBatchClustered's directory
	// merge: spans for profile tweet i live in
	// spanStart/spanEnd[spanOff[i]:spanOff[i+1]].
	spanOff   []int32
	spanStart []int32
	spanEnd   []int32
}

// grow sizes the accumulators to the store width. New entries are zero,
// and existing ones are zero by the between-calls invariant.
func (sc *BatchScratch) grow(numUsers int) {
	if len(sc.num) < numUsers {
		sc.num = make([]float64, numUsers)
		sc.inter = make([]int32, numUsers)
	}
}

// finish writes sim(u, w) for every candidate from the accumulators.
// Duplicate candidates read the same entry, so they get the same answer.
// The union is at least lu > 0, and a disjoint candidate's sum is +0, so
// it scores exactly Sim's 0.
func (s *Store) finish(lu int, candidates []ids.UserID, sc *BatchScratch, out []float64) {
	for i, w := range candidates {
		union := lu + len(s.profiles[w]) - int(sc.inter[w])
		out[i] = sc.num[w] / float64(union)
	}
}

// clearAll reports whether zeroing the whole accumulator arrays is no
// dearer than re-walking the scatterCost postings that touched them.
func (sc *BatchScratch) clearAll(scatterCost int) bool {
	if scatterCost < len(sc.num) {
		return false
	}
	clear(sc.num)
	clear(sc.inter)
	return true
}

// SimBatch computes sim(u, w) for every w in candidates, bit-identical
// to calling Sim(u, w) per pair; candidates may repeat and may include
// u. Results are written into out (grown if too small) and returned. sc
// may be nil for one-off calls; passing a reused scratch makes the call
// allocation-free. The Store must be quiescent (no concurrent Observe),
// as for all read methods.
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

	// Scatter pass: ascending-tweet walk over u's profile keeps each
	// user's float64 additions in the exact order of the pairwise sorted
	// merge.
	sc.grow(len(s.profiles))
	num, inter := sc.num, sc.inter
	for _, t := range pu {
		wt := float64(s.weights[t])
		for _, w := range s.postings[t] {
			num[w] += wt
			inter[w]++
		}
	}
	s.finish(len(pu), candidates, sc, out)
	if !sc.clearAll(scatterCost) {
		for _, t := range pu {
			for _, w := range s.postings[t] {
				num[w] = 0
				inter[w] = 0
			}
		}
	}
	return out
}
