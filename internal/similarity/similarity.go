// Package similarity implements the paper's user-similarity measure
// (Definition 3.1): a Jaccard similarity over retweet profiles, adjusted
// so that sharing an unpopular tweet counts more than sharing a viral one
// (Breese et al.'s inverse user frequency idea):
//
//	sim(u,v) = ( Σ_{i ∈ Lu ∩ Lv} 1/log(1+m(i)) ) / |Lu ∪ Lv|
//
// where Lu is the set of tweets u retweeted and m(i) the number of times
// tweet i was retweeted.
//
// The Store keeps per-user profiles as sorted tweet-ID slices plus a
// global popularity table, supports O(|Lu|+|Lv|) similarity via sorted
// merge, and allows incremental observation of new retweets so the
// incremental update strategies (§6.3) can refresh edge weights in place.
//
// It also maintains the transpose of the profile matrix — an inverted
// index mapping each tweet to the sorted set of users who retweeted it —
// which drives the SimBatch kernel (simbatch.go): similarity of one user
// against a whole candidate neighbourhood in a single pass over the
// user's posting lists instead of one sorted merge per pair.
package similarity

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/metrics"
)

// Store holds retweet profiles and tweet popularity for similarity
// computation. Methods are safe for concurrent readers; Observe mutates
// and requires external synchronization if mixed with reads.
type Store struct {
	profiles [][]ids.TweetID // per user, sorted ascending
	pop      []int32         // per tweet, number of retweets m(i)
	weights  []float32       // per tweet, min(1, 1/ln(1+m)) — cached
	postings [][]ids.UserID  // per tweet, sorted distinct retweeters (transpose of profiles)

	// Dirty-user tracking for incremental similarity-graph maintenance
	// (§6.3 online setting): Observe marks every user whose pairwise
	// similarities the action may have changed — the retweeter (profile
	// and union sizes changed) plus all co-retweeters of the tweet (the
	// popularity bump changed the weight every intersection containing
	// the tweet contributes). Any pair of users NOT both in the dirty set
	// provably kept its exact similarity, so re-scoring dirty users'
	// neighbourhoods is a complete invalidation strategy; see DESIGN.md
	// §12. dirtyMark is dense per-user; dirtyList holds marked users in
	// first-marked order. Mutated only by Observe and DrainDirty — the
	// read paths (Sim, SimBatch, Profile, ...) never touch them, so a
	// DrainDirty may run concurrently with similarity readers as long as
	// writers are excluded (the engine drains under its read lock, which
	// blocks Observe).
	dirtyMark []bool
	dirtyList []ids.UserID

	// mass[u] is Σ_{t ∈ Lu} wt(t) — the total weight of u's profile,
	// maintained incrementally by Observe: when a retweet moves tweet t's
	// weight, the delta is applied to every current retweeter of t (the
	// exact set whose mass contains the old weight), the same
	// O(|retweeters(t)|) pass markRetweetersDirty already takes. It backs
	// SimUpperBound, the provable prune certificate cluster pruning uses
	// (see simgraph.Config.ClusterPrune).
	mass []float64

	// Kernel-path counters (see Instrument): how often SimBatch ran its
	// scatter pass versus falling back to pairwise merges. Nil (no-op)
	// until instrumented; atomic, so concurrent SimBatch readers may bump
	// them freely.
	mBatch    *metrics.Counter
	mFallback *metrics.Counter

	// Cluster-prune counters (see InstrumentPrune): candidates seen and
	// dropped by the community pre-filter, and kernel invocations it
	// emptied outright. Nil (no-op) until instrumented; shared by Clone
	// like the kernel-path counters, so builds against store snapshots
	// report into the live engine's registry.
	mPruneIn      *metrics.Counter
	mPruneDropped *metrics.Counter
	mPruneSaved   *metrics.Counter
}

// Instrument wires the store's kernel-path counters: batch counts
// SimBatch calls that took the inverted-index scatter pass, fallback
// counts calls the cost guard routed to pairwise merges. Either may be
// nil. Call before concurrent use, alongside the rest of construction.
func (s *Store) Instrument(batch, fallback *metrics.Counter) {
	s.mBatch = batch
	s.mFallback = fallback
}

// InstrumentPrune wires the cluster-prune counters: in counts candidates
// the pre-filter inspected, dropped counts those it removed before the
// kernel, saved counts kernel invocations whose candidate set it emptied
// (the whole SimBatch pass skipped). Any may be nil.
func (s *Store) InstrumentPrune(in, dropped, saved *metrics.Counter) {
	s.mPruneIn = in
	s.mPruneDropped = dropped
	s.mPruneSaved = saved
}

// NotePrune records one pre-filter pass over a candidate neighbourhood.
func (s *Store) NotePrune(in, kept int) {
	s.mPruneIn.Add(uint64(in))
	s.mPruneDropped.Add(uint64(in - kept))
	if in > 0 && kept == 0 {
		s.mPruneSaved.Inc()
	}
}

// NewStore builds a store from a training action log.
func NewStore(numUsers, numTweets int, actions []dataset.Action) *Store {
	s := &Store{
		profiles:  make([][]ids.TweetID, numUsers),
		pop:       make([]int32, numTweets),
		dirtyMark: make([]bool, numUsers),
	}
	perUser := make([]int32, numUsers)
	for _, a := range actions {
		perUser[a.User]++
		s.pop[a.Tweet]++
	}
	for u, c := range perUser {
		if c > 0 {
			s.profiles[u] = make([]ids.TweetID, 0, c)
		}
	}
	for _, a := range actions {
		s.profiles[a.User] = append(s.profiles[a.User], a.Tweet)
	}
	for u := range s.profiles {
		p := s.profiles[u]
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		// Drop duplicate retweets of the same tweet by the same user.
		s.profiles[u] = dedupTweets(p)
	}
	s.rebuildWeights()
	s.rebuildPostings()
	s.rebuildMass()
	return s
}

// rebuildMass recomputes every user's profile mass from the current
// weights. Summation runs in ascending tweet order (profiles are
// sorted), the same order the incremental path preserves.
func (s *Store) rebuildMass() {
	if s.mass == nil {
		s.mass = make([]float64, len(s.profiles))
	}
	for u, p := range s.profiles {
		m := 0.0
		for _, t := range p {
			m += float64(s.weights[t])
		}
		s.mass[u] = m
	}
}

func dedupTweets(p []ids.TweetID) []ids.TweetID {
	out := p[:0]
	for i, t := range p {
		if i == 0 || t != p[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// rebuildWeights refreshes the cached per-tweet weight table.
func (s *Store) rebuildWeights() {
	if cap(s.weights) < len(s.pop) {
		s.weights = make([]float32, len(s.pop))
	}
	s.weights = s.weights[:len(s.pop)]
	for t, m := range s.pop {
		s.weights[t] = popularityWeight(m)
	}
}

// rebuildPostings recomputes the inverted index from the (deduplicated,
// sorted) profiles. Scanning users in ascending order keeps every posting
// list sorted without a per-list sort.
func (s *Store) rebuildPostings() {
	perTweet := make([]int32, len(s.pop))
	for _, p := range s.profiles {
		for _, t := range p {
			perTweet[t]++
		}
	}
	s.postings = make([][]ids.UserID, len(s.pop))
	for t, c := range perTweet {
		if c > 0 {
			s.postings[t] = make([]ids.UserID, 0, c)
		}
	}
	for u, p := range s.profiles {
		for _, t := range p {
			s.postings[t] = append(s.postings[t], ids.UserID(u))
		}
	}
}

// Retweeters returns the sorted distinct users who retweeted t (shared
// storage; do not modify).
func (s *Store) Retweeters(t ids.TweetID) []ids.UserID {
	if int(t) >= len(s.postings) {
		return nil
	}
	return s.postings[t]
}

// popularityWeight is 1/ln(1+m) clamped to [0,1]. The clamp keeps
// sim(u,v) ≤ 1 even for tweets retweeted only once (the paper restricts
// itself to m ≥ 2 where the clamp never fires).
func popularityWeight(m int32) float32 {
	if m <= 0 {
		return 1
	}
	w := 1 / math.Log(1+float64(m))
	if w > 1 {
		w = 1
	}
	return float32(w)
}

// Observe records a new retweet, updating the profile, the popularity,
// and the inverted index. The cached weight for the tweet is refreshed.
//
// Observe also maintains the dirty-user set: the retweeter and every
// co-retweeter of t are marked, because those are exactly the users whose
// pairwise similarities the action can change (the weight of t moved for
// every intersection containing it; u's union sizes moved for every
// pair). Marking costs O(|retweeters(t)|), the same bound as the posting-
// list insert below.
func (s *Store) Observe(u ids.UserID, t ids.TweetID) {
	for int(t) >= len(s.pop) {
		s.pop = append(s.pop, 0)
		s.weights = append(s.weights, 1)
		s.postings = append(s.postings, nil)
	}
	s.pop[t]++
	oldW := s.weights[t]
	s.weights[t] = popularityWeight(s.pop[t])
	if delta := float64(s.weights[t]) - float64(oldW); delta != 0 {
		// The weight of t moved: every current retweeter's profile mass
		// contains the old weight. u is not yet in the posting list (the
		// insert below), so a first-time retweet adds the fresh weight
		// separately; a duplicate retweet finds u already posted here.
		for _, v := range s.postings[t] {
			s.mass[v] += delta
		}
	}
	p := s.profiles[u]
	i := sort.Search(len(p), func(i int) bool { return p[i] >= t })
	if i < len(p) && p[i] == t {
		// Duplicate retweet: the profile is a set, but the popularity bump
		// above still changed the weight of t for every pair sharing it —
		// the co-retweeters (which include u) stay the invalidation set.
		s.markRetweetersDirty(t)
		return
	}
	p = append(p, 0)
	copy(p[i+1:], p[i:])
	p[i] = t
	s.profiles[u] = p
	// Mirror the set insert into the posting list (sorted by user).
	pl := s.postings[t]
	j := sort.Search(len(pl), func(j int) bool { return pl[j] >= u })
	pl = append(pl, 0)
	copy(pl[j+1:], pl[j:])
	pl[j] = u
	s.postings[t] = pl
	s.mass[u] += float64(s.weights[t]) // t joined u's profile
	s.markRetweetersDirty(t)           // includes u, just inserted
}

// markRetweetersDirty marks every current retweeter of t (u included,
// once inserted) as dirty.
func (s *Store) markRetweetersDirty(t ids.TweetID) {
	for _, v := range s.postings[t] {
		if int(v) < len(s.dirtyMark) && !s.dirtyMark[v] {
			s.dirtyMark[v] = true
			s.dirtyList = append(s.dirtyList, v)
		}
	}
}

// DirtyCount returns how many users are currently marked dirty — users
// whose profile or whose shared tweets' weights changed since the last
// DrainDirty. Callers must hold the same synchronization as any other
// read mixed with Observe.
func (s *Store) DirtyCount() int { return len(s.dirtyList) }

// DrainDirty appends the dirty users to buf (first-marked order, each
// user at most once), clears the dirty set, and returns the result. A
// subsequent Observe starts marking afresh, so draining immediately
// before a graph build hands the builder exactly the users whose
// similarities could have moved since the previous drain. DrainDirty
// mutates only the dirty bookkeeping — never the profiles, popularity,
// or postings — so it may run concurrently with similarity readers
// provided Observe is excluded.
func (s *Store) DrainDirty(buf []ids.UserID) []ids.UserID {
	buf = append(buf, s.dirtyList...)
	for _, u := range s.dirtyList {
		s.dirtyMark[u] = false
	}
	s.dirtyList = s.dirtyList[:0]
	return buf
}

// Clone returns a read-only snapshot of the store: profiles, popularity,
// cached weights, and the inverted index are deep-copied into freshly
// allocated (flattened) storage, so subsequent Observe calls on the
// original cannot be seen through the clone. The dirty-set
// bookkeeping is NOT carried over — a clone exists to feed a graph build,
// which receives the drained dirty list separately. The kernel-path
// counters are shared (they are atomic), so builds against the clone
// still show up in the original's instrumentation.
//
// Cloning costs one pass over the store's data (a few bytes per stored
// retweet), which is what lets the engine run the incremental build
// outside its lock: writers stall for the copy, not the build.
func (s *Store) Clone() *Store {
	return &Store{
		profiles:      cloneNested(s.profiles),
		pop:           append([]int32(nil), s.pop...),
		weights:       append([]float32(nil), s.weights...),
		postings:      cloneNested(s.postings),
		mass:          append([]float64(nil), s.mass...),
		mBatch:        s.mBatch,
		mFallback:     s.mFallback,
		mPruneIn:      s.mPruneIn,
		mPruneDropped: s.mPruneDropped,
		mPruneSaved:   s.mPruneSaved,
	}
}

// cloneNested deep-copies a slice of slices into one flat backing array
// (one allocation for all rows instead of one per row). Rows are
// capacity-clipped so an append to one row can never clobber the next.
func cloneNested[T any](rows [][]T) [][]T {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat := make([]T, 0, total)
	out := make([][]T, len(rows))
	for i, r := range rows {
		lo := len(flat)
		flat = append(flat, r...)
		out[i] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// Profile returns u's sorted retweet set (shared storage; do not modify).
func (s *Store) Profile(u ids.UserID) []ids.TweetID { return s.profiles[u] }

// ProfileSize returns |Lu|.
func (s *Store) ProfileSize(u ids.UserID) int { return len(s.profiles[u]) }

// ProfileMass returns Σ_{t ∈ Lu} wt(t), maintained incrementally.
func (s *Store) ProfileMass(u ids.UserID) float64 { return s.mass[u] }

// massSlack absorbs the floating-point drift between the incrementally
// maintained profile mass and an exact re-summation (both are sums of
// the same non-negative float32 weights; the relative divergence is
// bounded by profile-length × machine epsilon, many orders of magnitude
// below this). Inflating the bound keeps SimUpperBound a true upper
// bound in floating point, which the provable prune drop relies on.
const massSlack = 1 + 1e-9

// SimUpperBound returns a cheap, provable upper bound on the
// Definition 3.1 similarity Sim(u, w):
//
//	sim(u,w) = Σ_{t ∈ Lu∩Lw} wt(t) / |Lu ∪ Lw|
//	         ≤ min(M(u), M(w)) / max(|Lu|, |Lw|)
//
// because the intersection sum is at most either profile's total mass
// and the union is at least the larger profile. O(1): both masses are
// maintained incrementally.
func (s *Store) SimUpperBound(u, w ids.UserID) float64 {
	lu, lw := len(s.profiles[u]), len(s.profiles[w])
	if lu == 0 || lw == 0 {
		return 0
	}
	m := s.mass[u]
	if mw := s.mass[w]; mw < m {
		m = mw
	}
	den := lu
	if lw > den {
		den = lw
	}
	return m / float64(den) * massSlack
}

// Popularity returns m(i) for a tweet.
func (s *Store) Popularity(t ids.TweetID) int32 {
	if int(t) >= len(s.pop) {
		return 0
	}
	return s.pop[t]
}

// NumUsers returns the user count the store was built for.
func (s *Store) NumUsers() int { return len(s.profiles) }

// Sim computes sim(u,v) per Definition 3.1: symmetric, in [0,1], zero
// when the profiles are disjoint or either is empty.
func (s *Store) Sim(u, v ids.UserID) float64 {
	pu, pv := s.profiles[u], s.profiles[v]
	if len(pu) == 0 || len(pv) == 0 {
		return 0
	}
	var num float64
	inter := 0
	i, j := 0, 0
	for i < len(pu) && j < len(pv) {
		switch {
		case pu[i] < pv[j]:
			i++
		case pu[i] > pv[j]:
			j++
		default:
			num += float64(s.weights[pu[i]])
			inter++
			i++
			j++
		}
	}
	if inter == 0 {
		return 0
	}
	union := len(pu) + len(pv) - inter
	return num / float64(union)
}

// TopSimilar returns the k users with the highest non-zero similarity to
// u among candidates, ordered by descending similarity.
func (s *Store) TopSimilar(u ids.UserID, candidates []ids.UserID, k int) []Scored {
	top := make([]Scored, 0, k+1)
	for _, v := range candidates {
		if v == u {
			continue
		}
		sim := s.Sim(u, v)
		if sim == 0 {
			continue
		}
		top = insertTop(top, Scored{v, sim}, k)
	}
	return top
}

// Scored pairs a user with a similarity score.
type Scored struct {
	User ids.UserID
	Sim  float64
}

// insertTop inserts sc into the descending-sorted slice, keeping at most k
// entries.
func insertTop(top []Scored, sc Scored, k int) []Scored {
	i := sort.Search(len(top), func(i int) bool { return top[i].Sim < sc.Sim })
	top = append(top, Scored{})
	copy(top[i+1:], top[i:])
	top[i] = sc
	if len(top) > k {
		top = top[:k]
	}
	return top
}
