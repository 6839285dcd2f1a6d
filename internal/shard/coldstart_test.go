package shard

import (
	"testing"

	"repro"
	"repro/internal/graph"
	"repro/internal/recsys"
)

// TestColdStartFanoutKeepsCrossShardWinner is the regression test for
// the fan-out truncation bug: the router used to merge per-shard
// cold-start results already truncated to the top k,
// so a tweet whose summed score belongs in the merged top-k was dropped
// whenever no single shard ranked it that high — the classic
// distributed top-k mistake.
//
// The dataset forces exactly that shape. A cold user C follows four
// followees, two owned by each of two shards. Every followee has five
// feeder accounts made similar to it (and to nothing else) by symmetric
// one-shared-tweet training profiles, so every followee–feeder
// similarity is the same value s, and a followee's propagated score for
// a tweet is a strictly increasing function of how many of its feeders
// retweeted it. Per shard, the locally popular tweets get three
// endorsing feeders while tweet T gets two — so T sits at rank 3 of
// every shard's aggregate, outside each top-2 partial — but T is the
// only tweet endorsed on BOTH shards, so its merged score (2+2 units)
// beats every local winner (3 units) and the correct global answer
// ranks T first.
func TestColdStartFanoutKeepsCrossShardWinner(t *testing.T) {
	const (
		nUsers       = 64
		ringSeed     = 7
		k            = 2
		perFollowee  = 5 // feeders per followee
		followeesPer = 2 // followees per shard
	)

	// Build the same ring the router will use, to learn user ownership
	// before assigning roles.
	ring, err := NewRing(2, 0, ringSeed)
	if err != nil {
		t.Fatal(err)
	}
	var byShard [2][]repro.UserID
	for u := 1; u < nUsers; u++ { // user 0 is C
		s := ring.Owner(repro.UserID(u))
		byShard[s] = append(byShard[s], repro.UserID(u))
	}
	// Per shard: the followees, their feeders, plus one spare on shard 0
	// to author the test tweets. The author of a tweet is an implicit
	// propagation seed (see simgraph resolveLocked), so the author must be
	// an isolated account — no profile, no similarity edges — or it would
	// distort the engineered endorsement counts.
	need := followeesPer * (1 + perFollowee)
	for s := range byShard {
		if len(byShard[s]) < need+1 {
			t.Fatalf("shard %d owns %d of %d users, need %d; adjust nUsers/ringSeed", s, len(byShard[s]), nUsers, need+1)
		}
	}
	isolated := byShard[0][need]
	const c = repro.UserID(0)
	var followees []repro.UserID // 4 followees: 2 per shard
	var feeders [][]repro.UserID // feeders[i] belongs to followees[i]
	for s := 0; s < 2; s++ {
		pool := byShard[s]
		for f := 0; f < followeesPer; f++ {
			followees = append(followees, pool[f])
			base := followeesPer + f*perFollowee
			feeders = append(feeders, pool[base:base+perFollowee])
		}
	}

	// Training: followee i and feeder j co-retweet a tweet no one else
	// touches, so sim(followee, feeder) is one uniform value s and no
	// other similarity edge exists anywhere (in particular none at C).
	var tweets []repro.Tweet
	var train []repro.Action
	now := repro.Timestamp(1)
	for i, f := range followees {
		for j, a := range feeders[i] {
			tid := repro.TweetID(len(tweets))
			tweets = append(tweets, repro.Tweet{Author: a, Time: 0})
			train = append(train,
				repro.Action{User: f, Tweet: tid, Time: now},
				repro.Action{User: a, Tweet: tid, Time: now + 1},
			)
			now += 2
			_ = j
		}
	}

	// Test tweets: per shard, two locally-hot tweets with 3 endorsers, a
	// local also-ran with 2, and T with 2 — T endorsed on both shards.
	newTweet := func() repro.TweetID {
		tid := repro.TweetID(len(tweets))
		tweets = append(tweets, repro.Tweet{Author: isolated, Time: 0})
		return tid
	}
	x1, x2, x3 := newTweet(), newTweet(), newTweet() // shard 0 locals
	y1, y2, y3 := newTweet(), newTweet(), newTweet() // shard 1 locals
	tT := newTweet()                                 // the cross-shard winner

	type share struct {
		user  repro.UserID
		tweet repro.TweetID
	}
	var observes []share
	endorse := func(fi int, tweet repro.TweetID, from, n int) {
		for j := from; j < from+n; j++ {
			observes = append(observes, share{feeders[fi][j], tweet})
		}
	}
	endorse(0, x1, 0, 3) // followee 0 (shard 0): x1 scores 3 units
	endorse(0, tT, 3, 2) //                       T scores 2 units
	endorse(1, x2, 0, 3) // followee 1 (shard 0): x2 scores 3 units
	endorse(1, x3, 3, 2) //                       x3 scores 2 units
	endorse(2, y1, 0, 3) // followee 2 (shard 1): y1 scores 3 units
	endorse(2, tT, 3, 2) //                       T scores 2 more units
	endorse(3, y2, 0, 3) // followee 3 (shard 1): y2 scores 3 units
	endorse(3, y3, 3, 2) //                       y3 scores 2 units

	// Follow graph: C follows the four followees, and each followee
	// follows its feeders — similarity-graph candidates come from the
	// bounded BFS over the follow graph, so a followee–feeder similarity
	// edge only materializes when the feeder is in the followee's 2-hop
	// follow neighborhood.
	gb := graph.NewBuilder(nUsers, len(followees)*(1+perFollowee))
	gb.SetNumNodes(nUsers)
	for _, f := range followees {
		gb.AddEdge(c, f)
	}
	for i, f := range followees {
		for _, a := range feeders[i] {
			gb.AddEdge(f, a)
		}
	}
	ds := &repro.Dataset{Graph: gb.Build(), Tweets: tweets, Actions: train}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}

	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	eopts.MaxAge = 1 << 40
	r, err := New(ds, eopts, Options{Shards: 2, Seed: ringSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, o := range observes {
		if err := r.Observe(o.user, o.tweet, now); err != nil {
			t.Fatal(err)
		}
		now++
	}

	if warm := r.Shard(r.Owner(c)).Recommend(c, k, now); len(warm) != 0 {
		t.Fatalf("C is not cold: owner shard serves %v", warm)
	}

	// Every shard's aggregate must hold more than k tweets with T below
	// the local top-k — otherwise the dataset does not exercise the bug.
	for i := 0; i < r.NumShards(); i++ {
		full := r.Shard(i).ColdStartPartial(c, k, now)
		if len(full) <= k {
			t.Fatalf("shard %d aggregate has only %d tweets; truncation cannot bite", i, len(full))
		}
		trunc := topK(r.Shard(i).ColdStartPartial(c, k, now), k)
		if len(trunc) != k {
			t.Fatalf("shard %d truncated partial has %d entries, want %d", i, len(trunc), k)
		}
		for _, rec := range trunc {
			if rec.Tweet == tT {
				t.Fatalf("shard %d ranks T in its local top-%d (%v); the scenario must keep T below every local top-k", i, k, trunc)
			}
		}
	}

	// The old algorithm — merge of truncated partials — loses T.
	truncated := make([][]repro.Recommendation, r.NumShards())
	full := make([][]repro.Recommendation, r.NumShards())
	for i := 0; i < r.NumShards(); i++ {
		truncated[i] = topK(r.Shard(i).ColdStartPartial(c, k, now), k)
		full[i] = r.Shard(i).ColdStartPartial(c, k, now)
	}
	for _, rec := range mergeTopK(truncated, k) {
		if rec.Tweet == tT {
			t.Fatal("merging truncated partials kept T; the fixture no longer reproduces the bug")
		}
	}

	// The router must serve the true global answer: T first, and exactly
	// the merge of the untruncated partials.
	got := r.Recommend(c, k, now)
	if len(got) != k {
		t.Fatalf("router served %d recommendations, want %d: %v", len(got), k, got)
	}
	if got[0].Tweet != tT {
		t.Fatalf("router rank 1 is tweet %d, want the cross-shard winner %d (served %v)", got[0].Tweet, tT, got)
	}
	want := mergeTopK(full, k)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: router %+v, untruncated merge %+v", i, got[i], want[i])
		}
	}
}

// topK ranks one shard's untruncated cold-start partial and keeps the k
// best: the truncated per-shard list a naive merge would combine.
func topK(recs []repro.Recommendation, k int) []repro.Recommendation {
	top := recsys.NewTopK(k)
	for _, r := range recs {
		top.Offer(r.Tweet, r.Score)
	}
	return top.Ranked()
}
