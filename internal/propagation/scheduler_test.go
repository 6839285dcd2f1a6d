package propagation

import (
	"testing"

	"repro/internal/ids"
)

func TestSchedulerColdTweetWaits(t *testing.T) {
	s := NewScheduler(10*ids.Minute, 4*ids.Hour, 12)
	s.Observe(1, 100, 0, 1)
	if got := s.Due(10 * ids.Minute); len(got) != 0 {
		t.Fatalf("cold tweet flushed after 10 minutes: %v", got)
	}
	got := s.Due(4 * ids.Hour)
	if len(got) != 1 || got[0].Tweet != 1 || len(got[0].Users) != 1 {
		t.Fatalf("expected one batch with one user, got %v", got)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after flush", s.Pending())
	}
}

func TestSchedulerHotTweetFlushesFast(t *testing.T) {
	s := NewScheduler(10*ids.Minute, 4*ids.Hour, 12)
	// A burst of retweets marks the tweet hot; the frame shrinks toward
	// MinDelay.
	for i := 0; i < 20; i++ {
		s.Observe(2, ids.UserID(i), ids.Timestamp(i), i+1)
	}
	got := s.Due(10*ids.Minute + 20)
	if len(got) != 1 {
		t.Fatalf("hot tweet not flushed at MinDelay: %v", got)
	}
	if len(got[0].Users) != 20 {
		t.Errorf("batch has %d users, want 20", len(got[0].Users))
	}
}

func TestSchedulerBatchesPerTweet(t *testing.T) {
	s := NewScheduler(ids.Minute, ids.Hour, 12)
	s.Observe(1, 10, 0, 1)
	s.Observe(2, 11, 0, 1)
	s.Observe(1, 12, 1, 2)
	batches := s.Flush()
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}
	sizes := map[ids.TweetID]int{}
	for _, b := range batches {
		sizes[b.Tweet] = len(b.Users)
	}
	if sizes[1] != 2 || sizes[2] != 1 {
		t.Errorf("batch sizes %v", sizes)
	}
}

func TestSchedulerDueOrder(t *testing.T) {
	s := NewScheduler(ids.Minute, ids.Hour, 1000)
	s.Observe(1, 10, 0, 1)             // due at 1h
	s.Observe(2, 11, 30*ids.Minute, 1) // due at 1h30
	got := s.Due(2 * ids.Hour)
	if len(got) != 2 || got[0].Tweet != 1 || got[1].Tweet != 2 {
		t.Fatalf("due order wrong: %v", got)
	}
}

func TestSchedulerDefaultsSanitized(t *testing.T) {
	s := NewScheduler(0, -5, 0)
	if s.MinDelay <= 0 || s.MaxDelay < s.MinDelay || s.HotRate <= 0 {
		t.Errorf("defaults not sanitized: %+v", s)
	}
}

func TestSchedulerDrop(t *testing.T) {
	s := NewScheduler(ids.Minute, ids.Hour, 12)
	s.Observe(1, 10, 0, 1)
	s.Observe(2, 11, 0, 1)
	s.Observe(3, 12, 0, 1)

	s.Drop(2)
	if s.Pending() != 2 {
		t.Fatalf("pending = %d after drop, want 2", s.Pending())
	}
	s.Drop(2) // dropping twice is a no-op
	s.Drop(99)

	got := s.Due(2 * ids.Hour)
	if len(got) != 2 {
		t.Fatalf("flushed %d batches, want 2", len(got))
	}
	for _, b := range got {
		if b.Tweet == 2 {
			t.Fatal("dropped tweet still flushed")
		}
	}
}
