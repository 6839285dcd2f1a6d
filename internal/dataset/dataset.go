// Package dataset defines the in-memory representation of a microblogging
// dataset — the follow graph, the tweets, and the time-ordered retweet
// log — together with the temporal train/test split used throughout the
// paper's evaluation and a compact binary codec for persistence.
package dataset

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ids"
)

// Tweet is one published post. Topic is the latent interest community the
// synthetic generator drew the content from; algorithms never read it (the
// paper's methods are content-free), but analysis and debugging may.
type Tweet struct {
	Author ids.UserID
	Time   ids.Timestamp
	Topic  int16
}

// Action is one retweet/share event: User retweeted Tweet at Time. The
// paper treats "like" and "retweet" as interchangeable interest signals.
type Action struct {
	User  ids.UserID
	Tweet ids.TweetID
	Time  ids.Timestamp
}

// Dataset bundles a follow graph with its activity log. Actions are sorted
// by (Time, Tweet, User).
type Dataset struct {
	Graph   *graph.Graph
	Tweets  []Tweet
	Actions []Action
}

// NumUsers returns the account count.
func (d *Dataset) NumUsers() int { return d.Graph.NumNodes() }

// NumTweets returns the tweet count.
func (d *Dataset) NumTweets() int { return len(d.Tweets) }

// NumActions returns the retweet count.
func (d *Dataset) NumActions() int { return len(d.Actions) }

// Validate checks internal consistency: sorted actions, IDs in range.
func (d *Dataset) Validate() error {
	n := d.NumUsers()
	for i, t := range d.Tweets {
		if int(t.Author) >= n {
			return fmt.Errorf("dataset: tweet %d author %d out of range (users=%d)", i, t.Author, n)
		}
	}
	for i, a := range d.Actions {
		if int(a.User) >= n {
			return fmt.Errorf("dataset: action %d user %d out of range", i, a.User)
		}
		if int(a.Tweet) >= len(d.Tweets) {
			return fmt.Errorf("dataset: action %d tweet %d out of range", i, a.Tweet)
		}
		if a.Time < d.Tweets[a.Tweet].Time {
			return fmt.Errorf("dataset: action %d at %v precedes tweet publication %v", i, a.Time, d.Tweets[a.Tweet].Time)
		}
		if i > 0 && a.Time < d.Actions[i-1].Time {
			return fmt.Errorf("dataset: actions not sorted at index %d", i)
		}
	}
	return nil
}

// Split holds the temporal train/test partition of the action log. The
// paper trains on the first 90 % of retweet actions (oldest) and tests on
// the final 10 %.
type Split struct {
	Train, Test []Action
	// Cut is the timestamp boundary: every train action happened strictly
	// before every test action's position in the log (ties share Cut).
	Cut ids.Timestamp
}

// SplitByFraction partitions the sorted action log, placing the first
// trainFrac of actions in Train. trainFrac must be in (0, 1).
func (d *Dataset) SplitByFraction(trainFrac float64) (Split, error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return Split{}, fmt.Errorf("dataset: trainFrac %v out of (0,1)", trainFrac)
	}
	k := int(float64(len(d.Actions)) * trainFrac)
	if k == 0 || k == len(d.Actions) {
		return Split{}, fmt.Errorf("dataset: split would leave an empty side (%d actions)", len(d.Actions))
	}
	var cut ids.Timestamp
	if k < len(d.Actions) {
		cut = d.Actions[k].Time
	}
	return Split{Train: d.Actions[:k], Test: d.Actions[k:], Cut: cut}, nil
}

// RetweetCounts returns, per tweet, how many times it appears in the given
// action log (its popularity m(i) over that window).
func RetweetCounts(numTweets int, actions []Action) []int32 {
	counts := make([]int32, numTweets)
	for _, a := range actions {
		counts[a.Tweet]++
	}
	return counts
}

// UserRetweetCounts returns, per user, how many actions they performed in
// the log.
func UserRetweetCounts(numUsers int, actions []Action) []int32 {
	counts := make([]int32, numUsers)
	for _, a := range actions {
		counts[a.User]++
	}
	return counts
}

// ActivityClass buckets users by retweet volume as the paper does:
// low-active (< 100 retweets), moderate (100–1000), intensive (> 1000).
// Thresholds are parameters because synthetic datasets are smaller.
type ActivityClass int

// Activity classes, ordered by volume.
const (
	LowActivity ActivityClass = iota
	ModerateActivity
	IntensiveActivity
)

func (c ActivityClass) String() string {
	switch c {
	case LowActivity:
		return "low"
	case ModerateActivity:
		return "moderate"
	case IntensiveActivity:
		return "intensive"
	default:
		return fmt.Sprintf("ActivityClass(%d)", int(c))
	}
}

// ClassifyUsers assigns each user an activity class using the given
// thresholds over their action counts. lowMax is the largest count still
// "low"; modMax the largest still "moderate".
func ClassifyUsers(counts []int32, lowMax, modMax int32) []ActivityClass {
	out := make([]ActivityClass, len(counts))
	for i, c := range counts {
		switch {
		case c <= lowMax:
			out[i] = LowActivity
		case c <= modMax:
			out[i] = ModerateActivity
		default:
			out[i] = IntensiveActivity
		}
	}
	return out
}
