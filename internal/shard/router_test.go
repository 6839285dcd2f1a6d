package shard

import (
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/gen"
	"repro/internal/xrand"
)

// fixture is the shared differential-test setup: a small synthetic
// dataset split temporally, engine options with the freshness horizon
// opened wide so every recommendation stays servable regardless of
// timestamps (the same trick the persistence tests use).
type fixture struct {
	ds    *repro.Dataset
	train []repro.Action
	test  []repro.Action
	eopts repro.EngineOptions
	now   repro.Timestamp
}

func newFixture(t *testing.T, users int, seed uint64) *fixture {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(users, seed))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	eopts.MaxAge = 1 << 40
	now := test[len(test)-1].Time + 1
	return &fixture{ds: ds, train: train, test: test, eopts: eopts, now: now}
}

func (fx *fixture) newFleet(t *testing.T, opts Options) *Router {
	t.Helper()
	r, err := New(fx.ds, fx.eopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (fx *fixture) feed(t *testing.T, r *Router) {
	t.Helper()
	for _, a := range fx.test {
		if err := r.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatalf("observe %+v: %v", a, err)
		}
	}
}

// recommendAllRouter serves every user once, for whole-fleet output
// comparisons.
func recommendAllRouter(r *Router, k int, now repro.Timestamp) [][]repro.Recommendation {
	out := make([][]repro.Recommendation, r.Dataset().NumUsers())
	for u := range out {
		out[u] = r.Recommend(repro.UserID(u), k, now)
	}
	return out
}

func assertSameFleetOutput(t *testing.T, want, got [][]repro.Recommendation, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d users", label, len(want), len(got))
	}
	served := 0
	for u := range want {
		if len(want[u]) != len(got[u]) {
			t.Fatalf("%s: user %d served %d vs %d recommendations", label, u, len(want[u]), len(got[u]))
		}
		for i := range want[u] {
			if want[u][i] != got[u][i] {
				t.Fatalf("%s: user %d rank %d: %+v vs %+v", label, u, i, want[u][i], got[u][i])
			}
		}
		served += len(want[u])
	}
	if served == 0 {
		t.Fatalf("%s: vacuous comparison, no user was served anything", label)
	}
}

func TestNewRejectsReservedOptions(t *testing.T) {
	fx := newFixture(t, 60, 7)
	bad := fx.eopts
	bad.TrackUsers = []repro.UserID{1}
	if _, err := New(fx.ds, bad, Options{Shards: 2}); err == nil {
		t.Error("TrackUsers accepted; ownership is the ring's job")
	}
	if _, err := New(fx.ds, fx.eopts, Options{Shards: 0}); err == nil {
		t.Error("0 shards accepted")
	}
}

// TestObserveRoutesToOwner pins the partitioning invariant: an action is
// applied on exactly its owner shard, and no other shard's observed log
// ever sees it.
func TestObserveRoutesToOwner(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 4})
	fx.feed(t, r)

	perShard := 0
	for i := 0; i < r.NumShards(); i++ {
		for _, a := range r.Shard(i).ObservedActions() {
			if got := r.Owner(a.User); got != i {
				t.Fatalf("action %+v applied on shard %d but owned by %d", a, i, got)
			}
			perShard++
		}
	}
	if perShard != len(fx.test) {
		t.Fatalf("shards hold %d actions, fed %d", perShard, len(fx.test))
	}

	merged := r.ObservedActions()
	if len(merged) != len(fx.test) {
		t.Fatalf("merged log holds %d actions, fed %d", len(merged), len(fx.test))
	}
	for i := 1; i < len(merged); i++ {
		a, b := merged[i-1], merged[i]
		if a.Time > b.Time || (a.Time == b.Time && a.User > b.User) {
			t.Fatalf("merged log out of order at %d: %+v then %+v", i, a, b)
		}
	}

	if got := r.MetricsRegistry().Counter("router/observes").Value(); got != uint64(len(fx.test)) {
		t.Errorf("router/observes = %d, want %d", got, len(fx.test))
	}
	var loadSum uint64
	for _, l := range r.ShardLoads() {
		loadSum += l
	}
	if loadSum != uint64(len(fx.test)) {
		t.Errorf("shard loads sum to %d, want %d", loadSum, len(fx.test))
	}
}

// TestRecommendServesFromOwnerShard: for a warm user the router must
// return the owner engine's output verbatim — no cross-shard blending on
// the hot path.
func TestRecommendServesFromOwnerShard(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 3})
	fx.feed(t, r)

	warm := 0
	for u := 0; u < fx.ds.NumUsers(); u++ {
		uid := repro.UserID(u)
		own := r.Shard(r.Owner(uid)).Recommend(uid, 10, fx.now)
		if len(own) == 0 {
			continue
		}
		warm++
		got := r.Recommend(uid, 10, fx.now)
		if len(got) != len(own) {
			t.Fatalf("user %d: router served %d, owner engine %d", u, len(got), len(own))
		}
		for i := range own {
			if got[i] != own[i] {
				t.Fatalf("user %d rank %d: router %+v, owner %+v", u, i, got[i], own[i])
			}
		}
	}
	if warm == 0 {
		t.Fatal("vacuous: no warm users")
	}
}

// TestColdStartFanout pins the cold-start contract: on four shards, a
// user its owner shard cannot serve gets exactly what mergeTopK
// reconstructs from the shards' raw ColdStartPartial lists, flagged
// cold. On one shard, the router serves every user, warm and cold,
// exactly what a single engine with ColdStartFallback on serves, with
// the same cold flag.
func TestColdStartFanout(t *testing.T) { checkColdStartFanout(t, false) }

// TestClusterColdStartFanout pins the same contract under ClusterPrune,
// where each shard weights its partial by its own detected embeddings.
func TestClusterColdStartFanout(t *testing.T) { checkColdStartFanout(t, true) }

// checkColdStartFanout is the body of both fan-out tests; prune arms
// ClusterPrune on every engine.
func checkColdStartFanout(t *testing.T, prune bool) {
	t.Run("4 shards", func(t *testing.T) {
		fx := newFixture(t, 60, 7)
		if prune {
			fx.eopts.ClusterPrune = true
			fx.eopts.PruneMinOverlap = 0.05
		}
		r := fx.newFleet(t, Options{Shards: 4})
		fx.feed(t, r)
		if prune {
			for i := 0; i < r.NumShards(); i++ {
				if r.Shard(i).Clusters() == nil {
					t.Fatalf("shard %d: no embeddings despite ClusterPrune", i)
				}
			}
		}

		const k = 10
		coldServed := 0
		for u := 0; u < fx.ds.NumUsers(); u++ {
			uid := repro.UserID(u)
			if len(r.Shard(r.Owner(uid)).Recommend(uid, k, fx.now)) > 0 {
				continue // warm — fanout never triggers
			}
			partials := make([][]repro.Recommendation, r.NumShards())
			for i := 0; i < r.NumShards(); i++ {
				partials[i] = r.Shard(i).ColdStartPartial(uid, k, fx.now)
			}
			want := mergeTopK(partials, k)
			got, cold := r.RecommendWithColdStart(uid, k, fx.now)
			if !cold {
				t.Fatalf("cold user %d: served without the cold flag", u)
			}
			assertSameRecs(t, want, got, fmt.Sprintf("cold user %d", u))
			coldServed += len(got)
		}
		if coldServed == 0 {
			t.Fatal("vacuous: no cold user was served by the fanout")
		}
		if r.MetricsRegistry().Counter("router/fanouts").Value() == 0 {
			t.Error("router/fanouts never incremented")
		}
	})
	t.Run("1 shard", func(t *testing.T) {
		fx := newFixture(t, 120, 9)
		fx.eopts.ClusterPrune = prune
		fx.eopts.ColdStartFallback = true
		eng, err := repro.NewEngine(fx.ds, fx.eopts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for _, a := range fx.test {
			if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
				t.Fatal(err)
			}
		}
		r := fx.newFleet(t, Options{Shards: 1})
		fx.feed(t, r)

		const k = 10
		warm, cold := 0, 0
		for u := 0; u < fx.ds.NumUsers(); u++ {
			uid := repro.UserID(u)
			want, wantCold := eng.RecommendWithColdStart(uid, k, fx.now)
			got, gotCold := r.RecommendWithColdStart(uid, k, fx.now)
			label := fmt.Sprintf("user %d", u)
			if gotCold != wantCold {
				t.Fatalf("%s: router cold=%v, engine cold=%v", label, gotCold, wantCold)
			}
			assertSameRecs(t, want, got, label)
			switch {
			case len(got) == 0:
			case gotCold:
				cold++
			default:
				warm++
			}
		}
		if warm == 0 || cold == 0 {
			t.Fatalf("vacuous: %d warm and %d cold users served", warm, cold)
		}
		t.Logf("%d warm and %d cold users served", warm, cold)
	})
}

// assertSameRecs fails unless got equals want, rank by rank.
func assertSameRecs(t *testing.T, want, got []repro.Recommendation, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: served %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// TestCrossShardObserveCounter: the router must count every observe of a
// tweet already shared on a different shard — the lost-similarity
// signal — and must not count same-shard or single-shard traffic.
func TestCrossShardObserveCounter(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 2})

	// Find two users on different shards and one tweet.
	var u0, u1 repro.UserID
	found := false
	for u := 1; u < fx.ds.NumUsers() && !found; u++ {
		if r.Owner(repro.UserID(u)) != r.Owner(u0) {
			u1, found = repro.UserID(u), true
		}
	}
	if !found {
		t.Fatal("all users on one shard")
	}
	same := repro.UserID(0)
	for u := 1; u < fx.ds.NumUsers(); u++ {
		if repro.UserID(u) != u0 && r.Owner(repro.UserID(u)) == r.Owner(u0) {
			same = repro.UserID(u)
			break
		}
	}

	if err := r.Observe(u0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe(same, 0, 2); err != nil {
		t.Fatal(err)
	}
	if got := r.CrossShardObserves(); got != 0 {
		t.Fatalf("same-shard co-retweet counted as cross-shard (%d)", got)
	}
	if err := r.Observe(u1, 0, 3); err != nil {
		t.Fatal(err)
	}
	if got := r.CrossShardObserves(); got != 1 {
		t.Fatalf("cross-shard observes = %d, want 1", got)
	}
	// Every further action on the split tweet is lost mass, from either side.
	if err := r.Observe(u0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if got := r.CrossShardObserves(); got != 2 {
		t.Fatalf("cross-shard observes = %d, want 2", got)
	}
}

// TestSimilarityCrossShard: same-shard pairs get the engine value,
// cross-shard pairs get 0 plus a counted loss.
func TestSimilarityCrossShard(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 2})
	fx.feed(t, r)

	crossChecked, sameChecked := false, false
	for u := 0; u < fx.ds.NumUsers(); u++ {
		for v := u + 1; v < fx.ds.NumUsers(); v++ {
			uu, vv := repro.UserID(u), repro.UserID(v)
			if r.Owner(uu) == r.Owner(vv) {
				if got, want := r.Similarity(uu, vv), r.Shard(r.Owner(uu)).Similarity(uu, vv); got != want {
					t.Fatalf("same-shard sim(%d,%d) = %v, engine says %v", u, v, got, want)
				}
				sameChecked = true
			} else {
				before := r.MetricsRegistry().Counter("router/cross_shard_sim_zero").Value()
				if got := r.Similarity(uu, vv); got != 0 {
					t.Fatalf("cross-shard sim(%d,%d) = %v, want 0", u, v, got)
				}
				if after := r.MetricsRegistry().Counter("router/cross_shard_sim_zero").Value(); after != before+1 {
					t.Fatalf("cross-shard sim not counted (%d -> %d)", before, after)
				}
				crossChecked = true
			}
			if crossChecked && sameChecked {
				return
			}
		}
	}
	t.Fatal("vacuous: missing a same-shard or cross-shard pair")
}

// TestPropagateScoresMergesShards: the router result must be exactly the
// union of the per-shard propagations from the owner-partitioned seeds.
func TestPropagateScoresMergesShards(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 3})
	fx.feed(t, r)

	seeds := make([]repro.UserID, 0, fx.ds.NumUsers()/2)
	for u := 0; u < fx.ds.NumUsers(); u += 2 {
		seeds = append(seeds, repro.UserID(u))
	}
	got := r.PropagateScores(seeds)

	want := make(map[repro.UserID]float64)
	bySeed := make([][]repro.UserID, r.NumShards())
	for _, s := range seeds {
		bySeed[r.Owner(s)] = append(bySeed[r.Owner(s)], s)
	}
	for i, part := range bySeed {
		if len(part) == 0 {
			continue
		}
		for u, p := range r.Shard(i).PropagateScores(part) {
			want[u] += p
		}
	}
	if len(got) != len(want) {
		t.Fatalf("router propagated to %d users, per-shard union has %d", len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatal("vacuous: propagation reached nobody")
	}
	for u, p := range want {
		if got[u] != p {
			t.Fatalf("user %d: router %v, union %v", u, got[u], p)
		}
	}
}

// TestMetricsRollup: the fleet snapshot must carry the router/* series
// and every shard engine's series under shard/<i>/.
func TestMetricsRollup(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 2})
	fx.feed(t, r)
	r.RefreshGraphStats(repro.UpdateFromScratch)

	snap := r.Metrics()
	if snap.Counters["router/observes"] != uint64(len(fx.test)) {
		t.Errorf("router/observes = %d, want %d", snap.Counters["router/observes"], len(fx.test))
	}
	for i := 0; i < r.NumShards(); i++ {
		prefix := fmt.Sprintf("shard/%d/", i)
		found := false
		for name := range snap.Counters {
			if len(name) > len(prefix) && name[:len(prefix)] == prefix {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* counters in the rollup", prefix)
		}
	}
	var perShard uint64
	for i := 0; i < r.NumShards(); i++ {
		perShard += snap.Counters[fmt.Sprintf("router/shard/%d/observes", i)]
	}
	if perShard != uint64(len(fx.test)) {
		t.Errorf("per-shard observe counters sum to %d, want %d", perShard, len(fx.test))
	}
}

// TestAsyncObserveEquivalence: the queued ingest path must converge to
// the same state as synchronous routing — per-user FIFO is preserved
// because a user's actions all land in one mailbox.
func TestAsyncObserveEquivalence(t *testing.T) {
	fx := newFixture(t, 60, 7)
	syncFleet := fx.newFleet(t, Options{Shards: 4})
	async := fx.newFleet(t, Options{Shards: 4, QueueDepth: 16})
	fx.feed(t, syncFleet)

	if err := syncFleet.ObserveAsync(0, 0, 1); err == nil {
		t.Error("ObserveAsync accepted without QueueDepth")
	}
	for _, a := range fx.test {
		if err := async.ObserveAsync(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
	if err := async.Flush(); err != nil {
		t.Fatalf("flush reported async apply error: %v", err)
	}
	if got := async.MetricsRegistry().Counter("router/async/applied").Value(); got != uint64(len(fx.test)) {
		t.Errorf("async applied %d, fed %d", got, len(fx.test))
	}
	assertSameFleetOutput(t,
		recommendAllRouter(syncFleet, 10, fx.now),
		recommendAllRouter(async, 10, fx.now),
		"async vs sync ingest")
	if err := async.Close(); err != nil {
		t.Fatal(err)
	}
	if err := async.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestRouterRace exercises every router entry point concurrently; run
// under -race (the CI race matrix includes this package) it is the
// thread-safety contract of the fleet facade.
func TestRouterRace(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 4, QueueDepth: 8})
	defer r.Close()

	var wg sync.WaitGroup

	// Writer: streams the test split through the sync path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, a := range fx.test {
			_ = r.Observe(a.User, a.Tweet, a.Time)
		}
	}()
	// Async writer: replays the same actions through the mailboxes
	// (idempotence is not required — this is a race test, not a
	// correctness diff).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, a := range fx.test {
			_ = r.ObserveAsync(a.User, a.Tweet, a.Time)
		}
		_ = r.Flush()
	}()
	// Readers: a bounded burst of every read entry point.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for i := 0; i < 300; i++ {
				u := repro.UserID(rng.Intn(fx.ds.NumUsers()))
				v := repro.UserID(rng.Intn(fx.ds.NumUsers()))
				r.Recommend(u, 10, fx.now)
				r.Similarity(u, v)
				r.PropagateScores([]repro.UserID{u, v})
				_ = r.ShardLoads()
				_ = r.Metrics()
			}
		}(uint64(w) + 1)
	}
	// Maintenance.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			r.RefreshGraphStats(repro.UpdateFromScratch)
		}
	}()

	wg.Wait()
}
