package similarity

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ids"
)

// streamWorld drives a store through a pseudo-random observation stream
// and returns it alongside a freshly rebuilt reference store over the
// same final action multiset.
func streamWorld(users, tweets, n int, seed uint64) (*Store, *Store) {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var all []dataset.Action
	base := n / 2
	for i := 0; i < base; i++ {
		all = append(all, dataset.Action{User: ids.UserID(next() % uint64(users)), Tweet: ids.TweetID(next() % uint64(tweets))})
	}
	live := NewStore(users, tweets, all)
	for i := base; i < n; i++ {
		u := ids.UserID(next() % uint64(users))
		t := ids.TweetID(next() % uint64(tweets))
		live.Observe(u, t)
		all = append(all, dataset.Action{User: u, Tweet: t})
	}
	return live, NewStore(users, tweets, all)
}

// TestProfileMassIncremental pins that the incrementally maintained mass
// tracks an exact rebuild to within the documented drift budget.
func TestProfileMassIncremental(t *testing.T) {
	live, ref := streamWorld(60, 120, 600, 11)
	for u := 0; u < live.NumUsers(); u++ {
		got, want := live.ProfileMass(ids.UserID(u)), ref.ProfileMass(ids.UserID(u))
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("user %d mass %v, rebuilt %v", u, got, want)
		}
	}
}

// TestSimUpperBound pins the certificate: the bound dominates the pure
// tweet similarity for every pair, including after streaming.
func TestSimUpperBound(t *testing.T) {
	live, _ := streamWorld(50, 90, 500, 23)
	for u := 0; u < live.NumUsers(); u++ {
		for v := 0; v < live.NumUsers(); v++ {
			sim := live.Sim(ids.UserID(u), ids.UserID(v))
			ub := live.SimUpperBound(ids.UserID(u), ids.UserID(v))
			if sim > ub {
				t.Fatalf("Sim(%d,%d)=%v exceeds bound %v", u, v, sim, ub)
			}
		}
	}
}

// TestCloneCarriesMass pins that snapshots keep the mass table, since
// incremental graph builds prune against clones.
func TestCloneCarriesMass(t *testing.T) {
	live, _ := streamWorld(40, 80, 300, 5)
	c := live.Clone()
	for u := 0; u < live.NumUsers(); u++ {
		if c.ProfileMass(ids.UserID(u)) != live.ProfileMass(ids.UserID(u)) {
			t.Fatalf("clone mass diverged at user %d", u)
		}
	}
	// Mutating the original must not leak into the clone.
	before := c.ProfileMass(0)
	live.Observe(0, 0)
	if c.ProfileMass(0) != before {
		t.Fatalf("clone mass mutated by Observe on original")
	}
}
