package bubbles

import (
	"repro/internal/community"
	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/recsys"
)

// Diversifier re-ranks a base recommender's output so no single bubble
// holds more than MaxBubbleShare of the returned list — the paper's
// "complementary score for recommendations by escaping from information
// locality from a bubble to another", realized as a constrained re-rank:
// candidates are taken in score order, but once a bubble exhausts its
// quota further candidates from it are deferred until every other bubble
// is exhausted (so the list is still filled when diversity is simply not
// available).
type Diversifier struct {
	// Base produces the candidate ranking.
	Base recsys.Recommender
	// Bubbles labels users with their community over the similarity
	// graph; a user's bubble is its hard label.
	Bubbles *community.Embeddings
	// AuthorOf resolves a tweet's author (the bubble a tweet "comes
	// from" is its author's bubble).
	AuthorOf func(ids.TweetID) ids.UserID
	// MaxBubbleShare caps one bubble's share of the top-k in (0, 1].
	MaxBubbleShare float64
	// Overfetch widens the base query (k × Overfetch) so the re-rank has
	// spare candidates from other bubbles.
	Overfetch int
}

// NewDiversifier wraps base with bubble-capped re-ranking.
func NewDiversifier(base recsys.Recommender, a *community.Embeddings, authorOf func(ids.TweetID) ids.UserID) *Diversifier {
	return &Diversifier{
		Base:           base,
		Bubbles:        a,
		AuthorOf:       authorOf,
		MaxBubbleShare: 0.5,
		Overfetch:      4,
	}
}

// Name implements recsys.Recommender.
func (d *Diversifier) Name() string { return d.Base.Name() + "+diverse" }

// Init implements recsys.Recommender.
func (d *Diversifier) Init(ctx *recsys.Context) error { return d.Base.Init(ctx) }

// Observe implements recsys.Recommender.
func (d *Diversifier) Observe(a dataset.Action) { d.Base.Observe(a) }

// Recommend implements recsys.Recommender with the bubble cap.
func (d *Diversifier) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	if k <= 0 {
		return nil
	}
	over := d.Overfetch
	if over < 1 {
		over = 1
	}
	cands := d.Base.Recommend(u, k*over, now)
	if len(cands) <= 1 {
		return truncate(cands, k)
	}
	share := d.MaxBubbleShare
	if share <= 0 || share > 1 {
		share = 0.5
	}
	quota := int(float64(k) * share)
	if quota < 1 {
		quota = 1
	}

	taken := make([]recsys.ScoredTweet, 0, k)
	perBubble := map[int32]int{}
	var deferred []recsys.ScoredTweet
	for _, c := range cands {
		if len(taken) == k {
			break
		}
		b := d.Bubbles.Label(d.AuthorOf(c.Tweet))
		if b != community.NoCluster && perBubble[b] >= quota {
			deferred = append(deferred, c)
			continue
		}
		perBubble[b]++
		taken = append(taken, c)
	}
	// Fill remaining slots from deferred candidates (diversity was not
	// available; never return fewer items than the base would).
	for _, c := range deferred {
		if len(taken) == k {
			break
		}
		taken = append(taken, c)
	}
	return taken
}

func truncate(s []recsys.ScoredTweet, k int) []recsys.ScoredTweet {
	if len(s) > k {
		return s[:k]
	}
	return s
}

var _ recsys.Recommender = (*Diversifier)(nil)
