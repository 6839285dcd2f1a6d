package similarity

import "repro/internal/ids"

// ClusterIndex is a label-bucketed view of the store's inverted index:
// every posting list reordered so that users sharing a community label
// form one contiguous group, groups ascending by label. SimBatch's
// scatter pass walks posting lists looking for candidates; when the
// candidate set is confined to a few communities (the cluster-pruned
// build), whole groups provably contain no candidate and are skipped —
// turning the scatter cost from Σ_{t∈Lu} |retweeters(t)| into only the
// posting mass of the candidates' own communities.
//
// The reorder is exact, not an approximation: per candidate the kernel
// still adds the same float64 weights in the same ascending-tweet order
// (the outer profile walk is unchanged; within one tweet each candidate
// receives exactly one addition, so group order is irrelevant).
//
// An index is a snapshot: it is built against the store's current
// postings and does not track later Observes. Builds run against
// quiescent store snapshots (clones), so the graph-construction paths
// rebuild it per build, like the BFS scratch.
type ClusterIndex struct {
	// labelOf[u] is u's hard community label, -1 for unlabelled users.
	labelOf []int32
	// users holds every posting list tweet-major, each list grouped by
	// ascending label (users ascending within a group).
	users []ids.UserID
	// userOff[t] : userOff[t+1] is tweet t's span in users.
	userOff []int32
	// groupOff[t] : groupOff[t+1] is tweet t's span in groupLabel and
	// groupStart; groupStart is absolute into users, and a group ends
	// where the next group (or the tweet's span) begins.
	groupOff   []int32
	groupLabel []int32
	groupStart []int32
}

// BuildClusterIndex buckets every posting list by the given per-user
// hard labels (entries in [-1, numLabels)). Users beyond len(labelOf)
// count as unlabelled. One linear pass over the inverted index.
func (s *Store) BuildClusterIndex(labelOf []int32, numLabels int) *ClusterIndex {
	nT := len(s.postings)
	total := 0
	for _, p := range s.postings {
		total += len(p)
	}
	idx := &ClusterIndex{
		labelOf:  labelOf,
		users:    make([]ids.UserID, total),
		userOff:  make([]int32, nT+1),
		groupOff: make([]int32, nT+1),
	}
	lbl := func(w ids.UserID) int32 {
		if int(w) < len(labelOf) {
			return labelOf[w]
		}
		return -1
	}
	// count[l+1] is the occurrence count of label l within one tweet;
	// touched lists the labels present so resets stay O(distinct labels).
	count := make([]int32, numLabels+1)
	touched := make([]int32, 0, numLabels+1)
	base := int32(0)
	for t, post := range s.postings {
		idx.userOff[t] = base
		idx.groupOff[t] = int32(len(idx.groupLabel))
		for _, w := range post {
			l := lbl(w) + 1
			if count[l] == 0 {
				touched = append(touched, l)
			}
			count[l]++
		}
		if len(touched) > 1 {
			sortInt32(touched)
		}
		// Prefix the counts into per-label write cursors (reusing count),
		// emitting one group per present label in ascending label order.
		run := base
		for _, l := range touched {
			idx.groupLabel = append(idx.groupLabel, l-1)
			idx.groupStart = append(idx.groupStart, run)
			c := count[l]
			count[l] = run
			run += c
		}
		// Stable counting-sort scatter: posting lists are ascending, so
		// sequential placement keeps users ascending within each group.
		for _, w := range post {
			l := lbl(w) + 1
			idx.users[count[l]] = w
			count[l]++
		}
		for _, l := range touched {
			count[l] = 0
		}
		touched = touched[:0]
		base += int32(len(post))
	}
	idx.userOff[nT] = base
	idx.groupOff[nT] = int32(len(idx.groupLabel))
	return idx
}

// sortInt32 is a small insertion sort — per-tweet label sets are tiny.
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}

// groupEnd returns where group g of tweet t ends in idx.users.
func (idx *ClusterIndex) groupEnd(t int, g int32) int32 {
	if g+1 < idx.groupOff[t+1] {
		return idx.groupStart[g+1]
	}
	return idx.userOff[t+1]
}

// SimBatchClustered computes sim(u, w) for every w in candidates,
// bit-identical to SimBatch and Sim, using the label-bucketed index:
// the scatter pass visits only posting-list groups whose label appears
// in labels — which must be the ascending distinct label set of the
// candidates (including -1 for unlabelled candidates), or a superset.
// The same cost guard as SimBatch routes viral-profile calls to
// pairwise merges; sc and out follow the SimBatch contract.
func (s *Store) SimBatchClustered(u ids.UserID, candidates []ids.UserID, labels []int32, idx *ClusterIndex, sc *BatchScratch, out []float64) []float64 {
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

	// One directory-merge pass over u's profile records the matched
	// group spans (per profile tweet, into idx.users) and sums the
	// group-restricted scatter cost: only posting entries under the
	// candidates' labels are ever touched. The scatter pass below then
	// replays the spans without re-merging.
	if cap(sc.spanOff) < len(pu)+1 {
		sc.spanOff = make([]int32, len(pu)+1)
	}
	sc.spanOff = sc.spanOff[:len(pu)+1]
	sc.spanStart = sc.spanStart[:0]
	sc.spanEnd = sc.spanEnd[:0]
	var scatterCost int
	for ti, t := range pu {
		sc.spanOff[ti] = int32(len(sc.spanStart))
		for g, li := idx.groupOff[t], 0; g < idx.groupOff[t+1] && li < len(labels); {
			switch {
			case idx.groupLabel[g] < labels[li]:
				g++
			case idx.groupLabel[g] > labels[li]:
				li++
			default:
				lo, hi := idx.groupStart[g], idx.groupEnd(int(t), g)
				scatterCost += int(hi - lo)
				sc.spanStart = append(sc.spanStart, lo)
				sc.spanEnd = append(sc.spanEnd, hi)
				g++
				li++
			}
		}
	}
	sc.spanOff[len(pu)] = int32(len(sc.spanStart))
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
			dupes = true
		}
		sc.stamp[w] = sc.epoch
		sc.slot[w] = int32(i)
		sc.num[i] = 0
		sc.inter[i] = 0
	}

	// Scatter pass: ascending-tweet outer walk keeps each candidate's
	// float64 additions in the exact pairwise-merge order; within one
	// tweet only the candidates' label groups (the recorded spans) are
	// visited.
	for ti, t := range pu {
		wt := float64(s.weights[t])
		for si := sc.spanOff[ti]; si < sc.spanOff[ti+1]; si++ {
			for _, w := range idx.users[sc.spanStart[si]:sc.spanEnd[si]] {
				if sc.stamp[w] == sc.epoch {
					j := sc.slot[w]
					sc.num[j] += wt
					sc.inter[j]++
				}
			}
		}
	}

	for i, w := range candidates {
		if dupes && sc.slot[w] != int32(i) {
			continue
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
