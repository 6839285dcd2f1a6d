package recsys

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/xrand"
)

func constPub(ids.TweetID) ids.Timestamp { return 0 }

func TestPoolBasics(t *testing.T) {
	p := NewPool([]ids.UserID{5, 9}, constPub, 100)
	if _, ok := p.tracked[5]; !ok {
		t.Fatal("tracking set wrong")
	}
	if _, ok := p.tracked[7]; ok {
		t.Fatal("tracking set wrong")
	}
	p.Bump(5, 1, 0.5)
	p.Bump(5, 1, 0.3) // lower score must not overwrite
	p.Bump(5, 2, 0.9)
	p.Bump(7, 3, 1.0) // untracked: ignored
	top := p.TopK(5, 10, 50)
	if len(top) != 2 || top[0].Tweet != 2 || top[1].Tweet != 1 || top[1].Score != 0.5 {
		t.Fatalf("TopK = %+v", top)
	}
	if p.Size(5) != 2 || p.Size(9) != 0 || p.Size(7) != 0 {
		t.Error("sizes wrong")
	}
}

func TestPoolAddAccumulates(t *testing.T) {
	p := NewPool([]ids.UserID{1}, constPub, 100)
	p.Add(1, 7, 0.2)
	p.Add(1, 7, 0.3)
	top := p.TopK(1, 1, 10)
	if len(top) != 1 || top[0].Score != 0.5 {
		t.Fatalf("TopK = %+v", top)
	}
}

func TestPoolMarkRetweeted(t *testing.T) {
	p := NewPool([]ids.UserID{1}, constPub, 100)
	p.Bump(1, 7, 0.9)
	p.MarkRetweeted(1, 7)
	if got := p.TopK(1, 5, 10); len(got) != 0 {
		t.Fatalf("retweeted tweet still recommended: %v", got)
	}
}

// TestNewPoolForMarksFreshTrainingShares: a training share of a tweet
// still inside the horizon at the end of training is marked shared; an
// older one needs no mark.
func TestNewPoolForMarksFreshTrainingShares(t *testing.T) {
	pub := func(t ids.TweetID) ids.Timestamp { return ids.Timestamp(t) * 10 }
	ctx := &Context{
		Train: []dataset.Action{
			{User: 1, Tweet: 0, Time: 5},   // published 0, expired at the cut
			{User: 1, Tweet: 9, Time: 95},  // published 90, fresh
			{User: 2, Tweet: 9, Time: 100}, // untracked sharer
		},
		Tracked: []ids.UserID{1},
		MaxAge:  50,
	}
	p := NewPoolFor(ctx, pub)
	p.Bump(1, 9, 0.9)
	if p.Size(1) != 0 {
		t.Fatal("fresh training share offered back to its sharer")
	}
	p.Bump(1, 0, 0.9) // unmarked, but TopK drops it as expired
	if got := p.TopK(1, 5, 100); len(got) != 0 {
		t.Fatalf("TopK = %+v, want empty", got)
	}
}

func TestPoolFreshnessEviction(t *testing.T) {
	pub := func(t ids.TweetID) ids.Timestamp { return ids.Timestamp(t) * 10 }
	p := NewPool([]ids.UserID{1}, pub, 50)
	p.Bump(1, 0, 0.9) // published at 0
	p.Bump(1, 9, 0.1) // published at 90
	top := p.TopK(1, 5, 100)
	if len(top) != 1 || top[0].Tweet != 9 {
		t.Fatalf("TopK after expiry = %+v", top)
	}
	// Expired entries are physically evicted.
	if p.Size(1) != 1 {
		t.Errorf("size %d after eviction, want 1", p.Size(1))
	}
}

func TestTopKMatchesSort(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := xrand.New(seed)
		k := int(kRaw)%20 + 1
		n := 100
		type item struct {
			t ids.TweetID
			s float64
		}
		items := make([]item, n)
		tk := NewTopK(k)
		for i := range items {
			items[i] = item{ids.TweetID(i), float64(rng.Intn(50))} // ties likely
			tk.Offer(items[i].t, items[i].s)
		}
		got := tk.Ranked()
		sort.Slice(items, func(i, j int) bool {
			if items[i].s != items[j].s {
				return items[i].s > items[j].s
			}
			return items[i].t < items[j].t
		})
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i].Tweet != items[i].t || got[i].Score != items[i].s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Offer(1, 0.5)
	tk.Offer(2, 0.7)
	got := tk.Ranked()
	if len(got) != 2 || got[0].Tweet != 2 {
		t.Fatalf("Ranked = %+v", got)
	}
}

func TestTopKZero(t *testing.T) {
	tk := NewTopK(0)
	tk.Offer(1, 0.5)
	if got := tk.Ranked(); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}
