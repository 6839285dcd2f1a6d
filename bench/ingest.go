package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/ids"
	"repro/internal/propagation"
	"repro/internal/simgraph"
	"repro/internal/similarity"
	"repro/internal/xrand"
)

// traceBlock is how many replay actions share a tracing mode on the
// traced ingest_replay run: blocks alternate traced/untraced, so the two
// modes cover the same stretch of the stream and their rates compare.
const traceBlock = 1000

// runIngest is the ingest_replay workload: one goroutine, no HTTP, fixed
// work — the next seconds×ingestActionsPerSecond stream actions through
// Engine.Observe with one RecommendWithColdStart after every fourth.
func runIngest(cfg runConfig) (*result, error) {
	res := &result{correct: true, values: map[string]float64{}}
	v := res.values

	var (
		eng          *repro.Engine
		ds           *repro.Dataset
		test         []repro.Action
		setups, genS []float64
		nodes        []nodeSetup
		lastNodeDir  string
	)
	for rep := 0; rep < setupReps; rep++ {
		if eng != nil {
			eng.Close()
			os.RemoveAll(lastNodeDir)
			eng, ds, test = nil, nil, nil
			runtime.GC() // the previous repetition's dataset is garbage now
		}
		start := time.Now()
		var err error
		if ds, err = generate(); err != nil {
			return nil, err
		}
		genS = append(genS, time.Since(start).Seconds())
		lastNodeDir = filepath.Join(cfg.workDir, "node-"+strconv.Itoa(rep))
		var ns nodeSetup
		if eng, test, ns, err = buildNode(ds, lastNodeDir, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		nodes = append(nodes, ns)
	}
	defer eng.Close()
	setupMetrics(res, setups, nodes, genS, nil)

	work := cfg.seconds * ingestActionsPerSecond
	if avail := len(test) - preloadActions; work > avail {
		work = avail
	}
	actions := test[preloadActions : preloadActions+work]
	rng := xrand.New(cfg.seed)
	users := newReadUsers(hotOrder(ds.NumUsers()), rng.Fork())
	shared := sharedSet{}
	shared.add(test[:preloadActions])
	maxAge := repro.DefaultEngineOptions().MaxAge

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	writes := make([]int64, 0, work)
	reads := make([]int64, 0, work/4)
	digest := newRecDigest()
	var modeNS, modeOps [2]int64 // [untraced, traced] busy time and ops, for trace.overhead_frac
	var observeNS int64
	opsFailed := 0

	before, procBefore := eng.Metrics(), readProcSnap()
	windowStart := time.Now()
	for i, a := range actions {
		traced := cfg.trace && (i/traceBlock)%2 == 0
		mode := 0
		if traced {
			mode = 1
		}
		start := time.Now()
		err := eng.Observe(a.User, a.Tweet, a.Time)
		d := time.Since(start)
		if traced {
			tr.add("client.write", "w"+strconv.Itoa(i), "", start, d, 0)
		}
		modeNS[mode] += int64(d)
		modeOps[mode]++
		observeNS += int64(d)
		if err != nil {
			opsFailed++
		} else {
			writes = append(writes, int64(d))
		}
		shared[actionKey(a.User, a.Tweet)] = 0
		if i%4 == 3 {
			u := users.next()
			start = time.Now()
			recs, _ := eng.RecommendWithColdStart(u, recK, a.Time)
			d = time.Since(start)
			if traced {
				tr.add("client.read", "r"+strconv.Itoa(i), "", start, d, 0)
			}
			reads = append(reads, int64(d))
			modeNS[mode] += int64(d)
			modeOps[mode]++
			digest.add(u, recs)
			if len(reads)%validateEvery == 0 {
				if err := checkRecs(ds, func(u repro.UserID, t repro.TweetID) bool { return shared.hadBy(u, t, 1) }, u, a.Time, maxAge, recs); err != nil {
					res.failed++
					res.correct = false
					res.notes = append(res.notes, "check: "+err.Error())
				}
			}
		}
	}
	elapsed := time.Since(windowStart)
	procAfter := readProcSnap()
	diff := diffSnapshot(before, eng.Metrics())

	ops := len(actions) + len(reads)
	res.attempted += ops
	res.failed += opsFailed
	v["loadgen.sent"], v["loadgen.ok"], v["loadgen.failed"] = float64(ops), float64(ops-opsFailed), float64(opsFailed)
	v["ops_per_s"] = float64(ops-opsFailed) / elapsed.Seconds()
	v["slo_met_frac"] = float64(latencyMetrics(v, reads, writes, int64(cfg.wl.sloLimit))) / float64(ops)
	// Direct calls: the engine's numbers are the client's numbers.
	v["engine.observe_batch_us_p50"], v["engine.observe_batch_us_p95"] = v["write_p50_us"], v["loadgen.write_p95_us"]
	v["engine.recommend_us_p50"], v["engine.recommend_us_p95"] = v["read_p50_us"], v["loadgen.read_p95_us"]
	procMetrics(v, procBefore, procAfter, ops-opsFailed)
	snapMetrics(v, diff)
	if diff.Counters["engine/wal/degraded_appends"] > 0 {
		return nil, fmt.Errorf("%w: %d degraded WAL appends", errInvalid, diff.Counters["engine/wal/degraded_appends"])
	}
	res.notes = append(res.notes,
		fmt.Sprintf("result_digest: %016x (reads=%d, fixed work=%d actions)", digest.h.Sum64(), len(reads), work),
		fmt.Sprintf("counts: propagations=%d recomputations=%d rounds=%d wal_bytes=%d",
			diff.Counters["rec/propagations"], diff.Counters["rec/recomputations"], diff.Counters["rec/rounds"], diff.Counters["wal/append/bytes"]))

	if cfg.trace {
		untraced := ratio(float64(modeOps[0]), float64(modeNS[0]))
		v["trace.overhead_frac"] = ratio(untraced-ratio(float64(modeOps[1]), float64(modeNS[1])), untraced)
		last := nodes[len(nodes)-1]
		if err := probeLayers(cfg, v, tr, ds, test, actions, last.InitS, float64(observeNS)/float64(len(actions))); err != nil {
			return nil, err
		}
		tr.add("engine.open", "setup", "", last.initStart, time.Duration(last.InitS*float64(time.Second)), 0)
		if err := saveTrace(cfg, tr.take()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probeLayers times each layer's public functions directly on the inputs
// the replay just used, so the engine's own share of an Observe is what
// is left after its layers: similarity.NewStore and simgraph.Build on the
// training log (initialization), then per stream action Store.Observe on
// a clone, Incremental.AddSeeds on the built graph with the recommender's
// seeding rule, and WAL AppendBuffered+SyncAfterAppend under the engine's
// sync policy. Probe state is first brought to where the engine stood at
// the window start by applying the preload untimed. Probe spans carry the
// request identifier of the replay's client.write they re-execute, but no
// parent: they run after it, not inside it.
func probeLayers(cfg runConfig, v map[string]float64, tr *tracer, ds *repro.Dataset, test, actions []repro.Action, initS, observeMeanNS float64) error {
	train := ds.Actions[:len(ds.Actions)-len(test)]
	start := time.Now()
	store := similarity.NewStore(ds.NumUsers(), ds.NumTweets(), train)
	storeBuild := time.Since(start)
	tr.add("similarity.store_build", "setup", "", start, storeBuild, 0)

	eo := repro.DefaultEngineOptions()
	gcfg := simgraph.DefaultConfig()
	gcfg.Tau, gcfg.Hops, gcfg.MaxNeighborhood = eo.Tau, eo.Hops, eo.MaxNeighborhood
	start = time.Now()
	g := simgraph.Build(ds.Graph, store, gcfg)
	graphBuild := time.Since(start)
	tr.add("simgraph.build", "setup", "", start, graphBuild, 0)
	v["similarity.store_build_ms"] = storeBuild.Seconds() * 1e3
	v["simgraph.build_ms"] = graphBuild.Seconds() * 1e3
	v["simgraph.edges"] = float64(g.NumEdges())
	v["simgraph.build_edges_per_s"] = ratio(float64(g.NumEdges()), graphBuild.Seconds())
	v["engine.init_self_ms"] = initS*1e3 - v["similarity.store_build_ms"] - v["simgraph.build_ms"]

	pcfg := propagation.DefaultConfig()
	pcfg.Threshold = propagation.NewDynamicThreshold()
	inc := propagation.NewIncremental(g, pcfg)
	states := map[ids.TweetID]*propagation.TweetState{}
	counts := map[ids.TweetID]int{}
	// addSeeds mirrors simgraph.Recommender.Observe without postponement:
	// stale actions are dropped, the author seeds a tweet's first
	// propagation, popularity is the tweet's stream count so far.
	addSeeds := func(a repro.Action) (time.Time, time.Duration) {
		if a.Time-ds.Tweets[a.Tweet].Time > eo.MaxAge {
			return time.Time{}, 0
		}
		counts[a.Tweet]++
		seeds := []ids.UserID{a.User}
		st := states[a.Tweet]
		if st == nil {
			st = propagation.NewTweetState()
			states[a.Tweet] = st
			if author := ds.Tweets[a.Tweet].Author; author != a.User {
				seeds = []ids.UserID{author, a.User}
			}
		}
		start := time.Now()
		inc.AddSeeds(st, seeds, counts[a.Tweet])
		return start, time.Since(start)
	}

	wal, err := durable.OpenWAL(filepath.Join(cfg.workDir, "probe-wal"), durable.WALOptions{})
	if err != nil {
		return err
	}
	defer wal.Close()

	clone := store.Clone()
	for _, a := range test[:preloadActions] {
		clone.Observe(a.User, a.Tweet)
		addSeeds(a)
	}
	var simNS, propNS, walNS time.Duration
	for i, a := range actions {
		req := "w" + strconv.Itoa(i)
		traced := (i/traceBlock)%2 == 0 // the blocks the replay traced

		start := time.Now()
		clone.Observe(a.User, a.Tweet)
		d := time.Since(start)
		simNS += d
		if traced {
			tr.add("similarity.observe", req, "", start, d, 0)
		}

		start, d = addSeeds(a)
		propNS += d
		if traced && d > 0 {
			tr.add("propagation.addseeds", req, "", start, d, 0)
		}

		start = time.Now()
		if _, err := wal.AppendBuffered(a); err != nil {
			return err
		}
		if err := wal.SyncAfterAppend(); err != nil {
			return err
		}
		d = time.Since(start)
		walNS += d
		if traced {
			tr.add("durable.wal_append", req, "", start, d, 0)
		}
	}
	n := float64(len(actions))
	v["similarity.observe_ns_per_action"] = float64(simNS) / n
	v["propagation.addseeds_us_per_action"] = float64(propNS) / n / 1e3
	v["durable.wal_append_ns_per_action"] = float64(walNS) / n
	v["engine.observe_self_us_mean"] = (observeMeanNS - float64(simNS+propNS+walNS)/n) / 1e3
	return nil
}

// saveTrace writes a traced run's merged spans where README.md says they
// go: <build-dir>/trace/<workload>-seed<N>/spans.jsonl.
func saveTrace(cfg runConfig, spans []span) error {
	dir := filepath.Join(cfg.buildDir, "trace", fmt.Sprintf("%s-seed%d", cfg.wl.name, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return writeSpans(filepath.Join(dir, "spans.jsonl"), spans)
}
