package similarity

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/xrand"
)

// checkBatchMatchesSim asserts SimBatch == pairwise Sim bit-for-bit for
// every source user against the given candidate set.
func checkBatchMatchesSim(t *testing.T, s *Store, cands []ids.UserID) {
	t.Helper()
	var sc BatchScratch
	var out []float64
	for u := 0; u < s.NumUsers(); u++ {
		out = s.SimBatch(ids.UserID(u), cands, &sc, out)
		for i, w := range cands {
			if want := s.Sim(ids.UserID(u), w); out[i] != want {
				t.Fatalf("SimBatch(%d)[%d]=%v, pairwise Sim(%d,%d)=%v", u, i, out[i], u, w, want)
			}
		}
	}
}

func allUsers(n int) []ids.UserID {
	out := make([]ids.UserID, n)
	for i := range out {
		out[i] = ids.UserID(i)
	}
	return out
}

// Property: the kernel is bit-identical to the pairwise oracle on
// randomized stores, for all-users and sparse candidate sets alike.
func TestSimBatchMatchesSim(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		users := 10 + rng.Intn(30)
		tweets := 5 + rng.Intn(40)
		s := randomStore(users, tweets, 40+rng.Intn(300), seed)
		var sc BatchScratch
		var out []float64
		cands := allUsers(users)
		for u := 0; u < users; u++ {
			out = s.SimBatch(ids.UserID(u), cands, &sc, out)
			for i, w := range cands {
				if out[i] != s.Sim(ids.UserID(u), w) {
					return false
				}
			}
		}
		// A sparse candidate subset, including duplicates and u itself.
		sparse := []ids.UserID{0, ids.UserID(users / 2), 0, ids.UserID(users - 1)}
		for u := 0; u < users; u++ {
			out = s.SimBatch(ids.UserID(u), sparse, &sc, out)
			for i, w := range sparse {
				if out[i] != s.Sim(ids.UserID(u), w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the kernel stays exact across interleaved Observe calls —
// the incremental posting-list maintenance must match a rebuild.
func TestSimBatchAfterObserve(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		s := randomStore(20, 25, 120, seed)
		var sc BatchScratch
		var out []float64
		cands := allUsers(20)
		for round := 0; round < 5; round++ {
			for i := 0; i < 15; i++ {
				// Tweet range beyond the initial 25 exercises growth.
				s.Observe(ids.UserID(rng.Intn(20)), ids.TweetID(rng.Intn(40)))
			}
			for u := 0; u < 20; u++ {
				out = s.SimBatch(ids.UserID(u), cands, &sc, out)
				for i, w := range cands {
					if out[i] != s.Sim(ids.UserID(u), w) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSimBatchEmptyInputs(t *testing.T) {
	s := randomStore(10, 10, 0, 3) // nobody retweeted anything
	var sc BatchScratch
	out := s.SimBatch(0, allUsers(10), &sc, nil)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("empty-profile SimBatch[%d] = %v, want 0", i, v)
		}
	}
	if got := s.SimBatch(0, nil, &sc, nil); len(got) != 0 {
		t.Fatalf("SimBatch with no candidates returned %v", got)
	}
	// nil scratch must work for one-off calls.
	s2 := randomStore(10, 10, 60, 4)
	out2 := s2.SimBatch(1, allUsers(10), nil, nil)
	for i := range out2 {
		if out2[i] != s2.Sim(1, ids.UserID(i)) {
			t.Fatal("nil-scratch SimBatch diverged from Sim")
		}
	}
}

// Fuzz: same oracle property, driven by the fuzzing engine. The seed
// corpus runs under plain `go test`.
func FuzzSimBatch(f *testing.F) {
	f.Add(uint64(1), uint8(8))
	f.Add(uint64(42), uint8(31))
	f.Add(uint64(977), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, sizeHint uint8) {
		users := 2 + int(sizeHint)%40
		tweets := 1 + int(seed%50)
		s := randomStore(users, tweets, users*6, seed)
		rng := xrand.New(seed ^ 0x9e3779b9)
		for i := 0; i < users; i++ {
			s.Observe(ids.UserID(rng.Intn(users)), ids.TweetID(rng.Intn(tweets+5)))
		}
		var sc BatchScratch
		var out []float64
		cands := allUsers(users)
		for u := 0; u < users; u++ {
			out = s.SimBatch(ids.UserID(u), cands, &sc, out)
			for i, w := range cands {
				if out[i] != s.Sim(ids.UserID(u), w) {
					t.Fatalf("SimBatch(%d, %d) = %v, want %v", u, w, out[i], s.Sim(ids.UserID(u), w))
				}
			}
		}
	})
}

// Concurrent SimBatch readers with private scratches must be race-free
// on a quiescent store (run under -race in CI).
func TestSimBatchConcurrentReaders(t *testing.T) {
	s := randomStore(60, 80, 900, 13)
	cands := allUsers(60)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc BatchScratch
			var out []float64
			for rep := 0; rep < 20; rep++ {
				u := ids.UserID((g*7 + rep) % 60)
				out = s.SimBatch(u, cands, &sc, out)
				for i, w := range cands {
					if out[i] != s.Sim(u, w) {
						t.Errorf("goroutine %d: SimBatch(%d,%d) diverged", g, u, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkSimBatchVsPairwise compares the inverted-index kernel against
// the per-pair sorted-merge reference on a neighbourhood-sized candidate
// set.
func BenchmarkSimBatchVsPairwise(b *testing.B) {
	const users, tweets = 4000, 6000
	rng := xrand.New(17)
	var log []dataset.Action
	for i := 0; i < users*12; i++ {
		// Zipf-ish tweet choice: squaring skews mass to low tweet IDs so
		// popular tweets have long posting lists, like real retweet data.
		z := rng.Float64()
		log = append(log, dataset.Action{
			User:  ids.UserID(rng.Intn(users)),
			Tweet: ids.TweetID(int(z * z * float64(tweets))),
			Time:  ids.Timestamp(i),
		})
	}
	s := NewStore(users, tweets, log)
	var cands []ids.UserID
	for i := 0; i < users && len(cands) < 1500; i += 2 {
		if s.ProfileSize(ids.UserID(i)) > 0 {
			cands = append(cands, ids.UserID(i))
		}
	}
	src := ids.UserID(1)
	for u := 0; u < users; u++ {
		if s.ProfileSize(ids.UserID(u)) > s.ProfileSize(src) {
			src = ids.UserID(u)
		}
	}

	b.Run("pairwise", func(b *testing.B) {
		out := make([]float64, len(cands))
		for i := 0; i < b.N; i++ {
			for j, w := range cands {
				out[j] = s.Sim(src, w)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		var sc BatchScratch
		var out []float64
		for i := 0; i < b.N; i++ {
			out = s.SimBatch(src, cands, &sc, out)
		}
	})
}
