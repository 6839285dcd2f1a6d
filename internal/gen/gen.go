// Package gen synthesizes a Twitter-like dataset: a follow graph with
// power-law degrees, hubs and community structure, plus a time-ordered
// retweet log produced by simulating information cascades over that graph.
//
// The generator replaces the paper's proprietary 2.2M-user crawl. It is
// calibrated so the §3 measurements hold in shape:
//
//   - power-law in/out degree distributions with strong hubs (small world,
//     short average paths);
//   - ≈90 % of tweets never retweeted, very popular tweets extremely rare
//     (Fig 2);
//   - power-law retweets-per-user with a heavy head and a cohort of users
//     who never retweet (Fig 3);
//   - short tweet lifetimes — most cascades die within hours, almost all
//     within three days (Fig 4);
//   - topical homophily: users who are close in the follow graph share
//     interests and therefore retweet the same tweets, so similarity decays
//     with graph distance (Tables 2–3), which is the property SimGraph
//     exploits.
//
// Cascades are the mechanism that makes homophily emerge rather than being
// painted on: a retweet can only happen on exposure (a follow edge from a
// previous spreader), and the retweet probability depends on the match
// between the tweet's topic and the user's community-driven interests.
//
// Everything is deterministic given Config.Seed.
package gen

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/epoch"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/xrand"
)

// Config controls the synthetic dataset. DefaultConfig provides calibrated
// values; Scale derives consistent smaller/larger instances.
type Config struct {
	Seed uint64

	// Network shape.
	NumUsers       int     // accounts in the graph
	NumCommunities int     // latent interest communities (Zipf sizes)
	CommunityZipf  float64 // community size skew (>0)
	MeanFollowees  float64 // average out-degree
	DegreeAlpha    float64 // out-degree power-law tail exponent
	MaxFolloweeFr  float64 // max out-degree as a fraction of NumUsers
	IntraFollowP   float64 // probability a follow stays inside the community
	FameAlpha      float64 // fame (in-degree attractor) tail exponent
	ReciprocityP   float64 // probability a follow edge is reciprocated

	// Activity and content.
	Duration       ids.Timestamp // simulated time span
	TweetsPerUser  float64       // mean tweets per user (scaled by activity)
	ActivityAlpha  float64       // user activity tail exponent
	NeverRetweetP  float64       // fraction of users who never retweet (§3: ~25 %)
	TopicsPerUser  int           // secondary interests per user
	OwnTopicWeight float64       // interest mass on the user's own community

	// Cascade dynamics.
	BaseRetweetP   float64       // per-exposure retweet probability scale
	MeanRetweetLag ids.Timestamp // mean exposure→retweet delay
	FreshnessTau   ids.Timestamp // exponential age decay constant
	MaxCascade     int           // hard cap on one tweet's retweet count
	// DiscoverFrac controls the out-of-network discovery channel (search,
	// trends, third-party links): for every follower-exposure retweet a
	// cascade gains, it draws on average DiscoverFrac additional
	// retweeters from the tweet's topic community who need not follow any
	// sharer. Real microblogging has such channels; without one, counting
	// sharing followees would be a near-oracle predictor, which real data
	// (the paper's §6) contradicts.
	DiscoverFrac float64
}

// DefaultConfig returns the calibrated configuration at the given user
// count and seed.
func DefaultConfig(numUsers int, seed uint64) Config {
	return Config{
		Seed:           seed,
		NumUsers:       numUsers,
		NumCommunities: clampInt(numUsers/400, 8, 256),
		CommunityZipf:  1.2,
		MeanFollowees:  30,
		DegreeAlpha:    1.5,
		MaxFolloweeFr:  0.05,
		IntraFollowP:   0.55,
		FameAlpha:      1.6,
		ReciprocityP:   0.22,
		Duration:       90 * ids.Day,
		TweetsPerUser:  14,
		ActivityAlpha:  1.1,
		NeverRetweetP:  0.25,
		TopicsPerUser:  3,
		OwnTopicWeight: 0.65,
		BaseRetweetP:   0.55,
		MeanRetweetLag: 90 * ids.Minute,
		FreshnessTau:   20 * ids.Hour,
		MaxCascade:     4000,
		DiscoverFrac:   8.0,
	}
}

// DenseFollowConfig returns the community-benchmark regime: follow
// density near the paper's crawl (most accounts follow far more than
// they retweet), sparse per-user activity, and fine flat communities
// (one per ~40 users, low size skew). In this regime candidate sets are
// large while profiles stay short, so similarity-graph construction is
// bottlenecked on per-candidate work — exactly where community pruning
// pays — and label propagation recovers communities at the granularity
// web-scale graphs exhibit (DefaultConfig's minimum of 8 communities is
// an artifact of small benchmark sizes, not of the target workload).
func DenseFollowConfig(numUsers int, seed uint64) Config {
	c := DefaultConfig(numUsers, seed)
	c.NumCommunities = clampInt(numUsers/40, 8, 512)
	c.CommunityZipf = 0.6
	c.MeanFollowees = 80
	c.TweetsPerUser = 6
	c.BaseRetweetP = 0.3
	c.DiscoverFrac = 3
	c.MaxCascade = 400
	return c
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	switch {
	case c.NumUsers < 10:
		return fmt.Errorf("gen: NumUsers %d too small (need >= 10)", c.NumUsers)
	case c.NumCommunities < 1:
		return fmt.Errorf("gen: NumCommunities must be >= 1")
	case c.MeanFollowees <= 0:
		return fmt.Errorf("gen: MeanFollowees must be > 0")
	case c.Duration <= 0:
		return fmt.Errorf("gen: Duration must be > 0")
	case c.BaseRetweetP < 0 || c.BaseRetweetP > 1:
		return fmt.Errorf("gen: BaseRetweetP %v out of [0,1]", c.BaseRetweetP)
	case c.NeverRetweetP < 0 || c.NeverRetweetP >= 1:
		return fmt.Errorf("gen: NeverRetweetP %v out of [0,1)", c.NeverRetweetP)
	}
	return nil
}

// Generate builds the dataset described by c.
func Generate(c Config) (*dataset.Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(c.Seed)

	users := makeUsers(c, rng.Fork())
	g := buildFollowGraph(c, users, rng.Fork())
	tweets, actions := simulateCascades(c, users, g, rng.Fork())

	ds := &dataset.Dataset{
		Graph:   g,
		Tweets:  tweets,
		Actions: actions,
	}
	return ds, nil
}

// user holds per-user latent attributes driving the simulation.
type user struct {
	community int16
	fame      float32 // attractiveness for incoming follows
	activity  float32 // drives tweet volume and retweet eagerness
	retweets  bool    // false for the never-retweet cohort
	// interests: sparse map community → affinity in (0,1], including own.
	topics    []int16
	affinity  []float32
	outDegree int32
}

func makeUsers(c Config, rng *xrand.RNG) []user {
	n := c.NumUsers
	users := make([]user, n)

	commZipf := xrand.NewZipf(rng, c.NumCommunities, c.CommunityZipf)
	maxOut := int(float64(n) * c.MaxFolloweeFr)
	if maxOut < 10 {
		maxOut = 10
	}

	for i := range users {
		u := &users[i]
		u.community = int16(commZipf.Rank() - 1)
		u.fame = float32(rng.Pareto(c.FameAlpha, 1, float64(n)))
		u.activity = float32(rng.Pareto(c.ActivityAlpha, 1, 1000))
		u.retweets = !rng.Bool(c.NeverRetweetP)

		// Out-degree: bounded Pareto scaled so the mean lands near
		// MeanFollowees. Bounded Pareto with alpha in (1,2) has a finite
		// mean; empirically rescale after sampling.
		u.outDegree = int32(rng.Pareto(c.DegreeAlpha, 1, float64(maxOut)))

		// Interests: own community plus a few secondary ones.
		u.topics = append(u.topics, u.community)
		r1 := rng.Float64()
		u.affinity = append(u.affinity, float32(c.OwnTopicWeight*(0.35+0.65*r1*r1)+0.2*rng.Float64()))
		for t := 0; t < c.TopicsPerUser; t++ {
			tc := int16(commZipf.Rank() - 1)
			if tc == u.community {
				continue
			}
			u.topics = append(u.topics, tc)
			u.affinity = append(u.affinity, float32(0.05+0.55*rng.Float64()))
		}
	}

	// Rescale out-degrees so the empirical mean matches MeanFollowees.
	var sum float64
	for i := range users {
		sum += float64(users[i].outDegree)
	}
	scale := c.MeanFollowees * float64(n) / sum
	for i := range users {
		d := int32(float64(users[i].outDegree)*scale + 0.5)
		if d < 1 {
			d = 1
		}
		if d >= int32(n) {
			d = int32(n - 1)
		}
		users[i].outDegree = d
	}
	return users
}

// affinityFor returns u's affinity for a topic (0 if not interested).
func (u *user) affinityFor(topic int16) float32 {
	for i, t := range u.topics {
		if t == topic {
			return u.affinity[i]
		}
	}
	return 0
}

// buildFollowGraph wires follow edges: each user u picks outDegree
// followees; with probability IntraFollowP the target is drawn
// fame-proportionally inside u's community, otherwise fame-proportionally
// from the whole graph. A fraction of edges are reciprocated, matching
// Twitter's observed mutual-follow rate and shortening paths.
func buildFollowGraph(c Config, users []user, rng *xrand.RNG) *graph.Graph {
	n := len(users)

	// Community membership lists and alias samplers.
	members := make([][]ids.UserID, c.NumCommunities)
	for i := range users {
		cm := users[i].community
		members[cm] = append(members[cm], ids.UserID(i))
	}
	commChoice := make([]*xrand.WeightedChoice, c.NumCommunities)
	for cm, list := range members {
		if len(list) == 0 {
			continue
		}
		w := make([]float64, len(list))
		for i, uid := range list {
			w[i] = float64(users[uid].fame)
		}
		commChoice[cm] = xrand.NewWeightedChoice(rng, w)
	}
	globalW := make([]float64, n)
	for i := range users {
		globalW[i] = float64(users[i].fame)
	}
	globalChoice := xrand.NewWeightedChoice(rng, globalW)

	b := graph.NewBuilder(n, int(float64(n)*c.MeanFollowees*1.2))
	b.SetNumNodes(n)
	for i := range users {
		u := ids.UserID(i)
		cm := users[i].community
		want := int(users[i].outDegree)
		attempts := 0
		added := 0
		for added < want && attempts < want*4+16 {
			attempts++
			var v ids.UserID
			if commChoice[cm] != nil && rng.Bool(c.IntraFollowP) {
				v = members[cm][commChoice[cm].Choose()]
			} else {
				v = ids.UserID(globalChoice.Choose())
			}
			if v == u {
				continue
			}
			b.AddEdge(u, v)
			added++
			if rng.Bool(c.ReciprocityP) {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Build()
}

// simulateCascades publishes tweets and propagates retweet cascades along
// follower edges (In(author) are the author's followers: they follow the
// author, so the author's posts reach them).
func simulateCascades(c Config, users []user, g *graph.Graph, rng *xrand.RNG) ([]dataset.Tweet, []dataset.Action) {
	n := len(users)
	totalTweets := int(float64(n) * c.TweetsPerUser)

	// Author sampling proportional to activity.
	actW := make([]float64, n)
	for i := range users {
		actW[i] = float64(users[i].activity)
	}
	authorChoice := xrand.NewWeightedChoice(rng, actW)

	// Publication times: uniform over the duration, then sorted so tweet
	// IDs are dense in time order.
	pubTimes := make([]ids.Timestamp, totalTweets)
	for i := range pubTimes {
		pubTimes[i] = ids.Timestamp(rng.Int63() % int64(c.Duration))
	}
	slices.Sort(pubTimes)

	tweets := make([]dataset.Tweet, totalTweets)
	// Cascades grow with the community sizes: the log holds 6 actions per
	// tweet at 300 users, 21.5 at 3 000 and 24.8 at 10 000, so reserving
	// 25 per tweet regrows the slice at most once up to that scale.
	actions := make([]dataset.Action, 0, totalTweets*25)

	// Per-user retweet eagerness in (0,1]: heavy-tailed via activity.
	eager := make([]float64, n)
	var maxAct float64
	for i := range users {
		if a := float64(users[i].activity); a > maxAct {
			maxAct = a
		}
	}
	for i := range users {
		// Normalized strongly-sub-linear activity: active users retweet
		// more (heavy tail), but ordinary users still participate.
		eager[i] = math.Pow(float64(users[i].activity)/maxAct, 0.25)
	}

	// Discovery channel: per-community samplers over eager retweeters.
	members := make([][]ids.UserID, c.NumCommunities)
	for i := range users {
		members[users[i].community] = append(members[users[i].community], ids.UserID(i))
	}
	discover := make([]*xrand.WeightedChoice, c.NumCommunities)
	for cm, list := range members {
		if len(list) == 0 {
			continue
		}
		w := make([]float64, len(list))
		for i, uid := range list {
			if users[uid].retweets {
				w[i] = eager[uid]
			}
		}
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if sum > 0 {
			discover[cm] = xrand.NewWeightedChoice(rng, w)
		}
	}

	type spread struct {
		user ids.UserID
		at   ids.Timestamp
	}
	var frontier []spread
	// seen marks the current tweet's sharers (author included). tested
	// marks users who already made their adoption decision for it. A user
	// decides ONCE, on first exposure, from their interest in the content
	// — repeated exposures do not retry the coin. This keeps adoption
	// interest-driven (homophily) rather than exposure-count-driven; with
	// per-exposure retries the generator would secretly implement the
	// Bayes baseline's noisy-OR as ground truth. The two sets stay apart:
	// discovery draws check seen only, so a tested non-sharer can still be
	// discovered. Both are epoch-stamped, so each tweet clears them with
	// one epoch bump.
	var seen, tested epoch.Marks

	for ti := range tweets {
		author := ids.UserID(authorChoice.Choose())
		topic := pickTopic(&users[author], rng)
		t0 := pubTimes[ti]
		tweets[ti] = dataset.Tweet{Author: author, Time: t0, Topic: topic}

		// Cascade: BFS in time order over followers of spreaders.
		frontier = frontier[:0]
		frontier = append(frontier, spread{author, t0})
		seen.Reset(n)
		tested.Reset(n)
		seen.Add(author)
		count := 0

		for head := 0; head < len(frontier) && count < c.MaxCascade; head++ {
			sp := frontier[head]
			// decay is the freshness factor exp(-age) of sp's share. It
			// depends on sp alone, so it is computed at most once per
			// frontier node, on first use; -1 means not yet (exp is
			// never negative). Calling math.Exp on the same argument
			// returns the same bits, so hoisting it leaves every
			// probability, and so the dataset, unchanged.
			decay := -1.0
			for _, f := range g.In(sp.user) { // f follows sp.user
				if seen.Has(f) {
					continue
				}
				if tested.Has(f) {
					continue // decision already made on first exposure
				}
				tested.Add(f)
				fu := &users[f]
				if !fu.retweets {
					continue
				}
				aff := float64(fu.affinityFor(topic))
				if aff == 0 {
					continue
				}
				if decay < 0 {
					age := float64(sp.at-t0) / float64(c.FreshnessTau)
					decay = math.Exp(-age)
				}
				p := c.BaseRetweetP * aff * eager[f] * decay
				if !rng.Bool(p) {
					continue
				}
				lag := ids.Timestamp(rng.Exp(float64(c.MeanRetweetLag)))
				at := sp.at + lag
				if at >= c.Duration {
					continue
				}
				seen.Add(f)
				actions = append(actions, dataset.Action{
					User: f, Tweet: ids.TweetID(ti), Time: at,
				})
				frontier = append(frontier, spread{f, at})
				count++
				if count >= c.MaxCascade {
					break
				}

				// Discovery: momentum draws in interested community
				// members who follow no sharer (search/trends channel).
				// Each accepted exposure retweet triggers on average
				// DiscoverFrac discovery attempts.
				nd := int(c.DiscoverFrac)
				if rng.Bool(c.DiscoverFrac - float64(nd)) {
					nd++
				}
				dage := float64(at-t0) / float64(c.FreshnessTau)
				ddecay := math.Exp(-dage) // same for every draw below
				for ; nd > 0 && discover[topic] != nil && count < c.MaxCascade; nd-- {
					d := members[topic][discover[topic].Choose()]
					if seen.Has(d) || !users[d].retweets {
						continue
					}
					daff := float64(users[d].affinityFor(topic))
					if !rng.Bool(daff * eager[d] * ddecay) {
						continue
					}
					dat := at + ids.Timestamp(rng.Exp(float64(c.MeanRetweetLag)))
					if dat >= c.Duration {
						continue
					}
					seen.Add(d)
					actions = append(actions, dataset.Action{
						User: d, Tweet: ids.TweetID(ti), Time: dat,
					})
					frontier = append(frontier, spread{d, dat})
					count++
				}
				if count >= c.MaxCascade {
					break
				}
			}
		}
	}

	// (Time, Tweet, User) is unique — seen forbids a repeated (user,
	// tweet) — so any correct sort yields the same order.
	slices.SortFunc(actions, func(a, b dataset.Action) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		if a.Tweet != b.Tweet {
			return cmp.Compare(a.Tweet, b.Tweet)
		}
		return cmp.Compare(a.User, b.User)
	})
	return tweets, actions
}

func pickTopic(u *user, rng *xrand.RNG) int16 {
	var sum float64
	for _, a := range u.affinity {
		sum += float64(a)
	}
	x := rng.Float64() * sum
	for i, a := range u.affinity {
		x -= float64(a)
		if x <= 0 {
			return u.topics[i]
		}
	}
	return u.topics[len(u.topics)-1]
}
