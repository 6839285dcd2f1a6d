// Command benchjson runs the SimGraph-construction benchmarks and emits
// a machine-readable baseline (BENCH_simgraph.json) so the perf
// trajectory of the inverted-index kernel is tracked PR over PR:
//
//	benchjson [-suite simgraph,propagation,shard,community] [-users 1200]
//	          [-seed 1] [-runs 3] [-observe 2000] [-out BENCH_simgraph.json]
//
// The -suite flag selects which benchmark families run (comma-separated;
// default all), so CI can smoke one family without paying for the rest.
//
// It measures, on the synthetic benchmark graph:
//   - full similarity-graph build time, pairwise reference vs SimBatch
//     kernel (best of -runs), verifying the edge sets are bit-identical;
//   - construction throughput in edges/sec;
//   - Engine.RefreshGraphStats cost split for every maintenance strategy
//     (from-scratch, update-weights, crossfold, incremental): build
//     time, read-lock write stall, exclusive lock hold, and the edge
//     delta against the pre-refresh graph — each on a fresh engine fed
//     the same -observe stream, so the dirty-set-driven incremental
//     entry is directly comparable to the full rebuild;
//   - a differential check that the incremental strategy's dirty users
//     carry out-edges bit-identical to a from-scratch rebuild
//     (incremental_exact_on_dirty).
//
// It also emits BENCH_propagation.json (see prop.go): the epoch-stamped
// incremental propagation kernel vs the frozen reference on a streaming
// replay (fixpoints verified bit-identical); BENCH_shard.json (see shard.go): the
// consistent-hash router's scaling curve and quality delta; and
// BENCH_community.json (see community.go): community-detection cost and
// the cluster-pruned build's speedup-vs-quality curve.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/simgraph"
	"repro/internal/similarity"
	"repro/internal/wgraph"
)

// report is the BENCH_simgraph.json schema.
type report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	CPUs        int    `json:"cpus"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Users       int    `json:"users"`
	Seed        uint64 `json:"seed"`
	Runs        int    `json:"runs"`

	Build struct {
		Edges          int     `json:"edges"`
		PairwiseMs     float64 `json:"pairwise_build_ms"`
		KernelMs       float64 `json:"kernel_build_ms"`
		Speedup        float64 `json:"speedup"`
		EdgesPerSecond float64 `json:"edges_per_sec"`
		BitIdentical   bool    `json:"bit_identical"`
	} `json:"build"`

	// Refresh holds one entry per maintenance strategy, Figure 16 order.
	Refresh []refreshEntry `json:"refresh"`

	// IncrementalExactOnDirty records the library-level differential
	// check: after the observe stream, every dirty user's out-edges under
	// UpdateIncremental are bit-identical to a from-scratch rebuild.
	IncrementalExactOnDirty bool `json:"incremental_exact_on_dirty"`
}

// refreshEntry is one strategy's RefreshGraphStats cost split, measured on a
// fresh engine fed the same observe stream (best of -runs).
type refreshEntry struct {
	Strategy        string  `json:"strategy"`
	ObservedActions int     `json:"observed_actions"`
	BuildMs         float64 `json:"build_ms"`
	WriteStallMs    float64 `json:"write_stall_ms"`
	LockHoldMs      float64 `json:"lock_hold_ms"`
	DirtyUsers      int     `json:"dirty_users"`
	EdgesAdded      int     `json:"edges_added"`
	EdgesRemoved    int     `json:"edges_removed"`
	EdgesReweighted int     `json:"edges_reweighted"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	var (
		suite   = flag.String("suite", "simgraph,propagation,shard,community", "comma-separated benchmark families to run")
		users   = flag.Int("users", 1200, "synthetic dataset size (matches bench_test.go)")
		seed    = flag.Uint64("seed", 1, "generator seed")
		runs    = flag.Int("runs", 3, "timing runs per variant (best kept)")
		observe = flag.Int("observe", 2000, "actions streamed into the engine before the refresh")
		out     = flag.String("out", "BENCH_simgraph.json", "output file")

		propNodes    = flag.Int("propNodes", 20000, "synthetic graph size for the propagation replay")
		propDeg      = flag.Int("propDeg", 8, "average degree of the propagation replay graph")
		propTweets   = flag.Int("propTweets", 60, "concurrently-hot tweets in the propagation replay")
		propPerTweet = flag.Int("propPerTweet", 10, "shares streamed per tweet in the propagation replay")
		propOut      = flag.String("propOut", "BENCH_propagation.json", "propagation report output file")

		shards         = flag.String("shards", "1,2,4", "comma-separated fleet sizes for the sharded-router benchmark (empty disables)")
		shardWriters   = flag.Int("shardWriters", 4, "concurrent writer goroutines in the shard ingest benchmark")
		shardReaders   = flag.Int("shardReaders", 4, "concurrent reader goroutines in the shard serving benchmark")
		shardRuns      = flag.Int("shardRuns", 1, "timing runs per fleet size (best kept; fleets rebuild per run)")
		shardEvalUsers = flag.Int("shardEvalUsers", 300, "dataset size for the sharded-vs-oracle quality replay")
		shardOut       = flag.String("shardOut", "BENCH_shard.json", "shard report output file")

		pruneOverlaps      = flag.String("pruneOverlaps", "0,0.3,0.5,0.6,0.7", "comma-separated PruneMinOverlap settings for the community suite")
		communityUsers     = flag.Int("communityUsers", 3000, "dense-follow dataset size for the community suite's timed builds")
		communityEvalUsers = flag.Int("communityEvalUsers", 800, "dense-follow dataset size for the pruned-vs-oracle quality replay")
		communityOut       = flag.String("communityOut", "BENCH_community.json", "community report output file")
	)
	flag.Parse()
	suites := parseSuites(*suite)

	ds, err := gen.Generate(gen.DefaultConfig(*users, *seed))
	if err != nil {
		log.Fatal(err)
	}
	store := similarity.NewStore(ds.NumUsers(), ds.NumTweets(), ds.Actions)

	if suites["simgraph"] {
		simgraphBench(ds, store, simgraph.DefaultConfig(), *users, *seed, *runs, *observe, *out)
	}

	if suites["propagation"] {
		propagationBench(*propNodes, *propDeg, *propTweets, *propPerTweet, *runs, *seed, *propOut)
	}

	if suites["shard"] {
		if counts := parseShardCounts(*shards); len(counts) > 0 {
			shardBench(*users, counts, *shardWriters, *shardReaders, *shardRuns, *seed,
				*shardEvalUsers, *shardOut)
		}
	}

	if suites["community"] {
		communityBench(*communityUsers, *runs, *observe, *seed, parseOverlaps(*pruneOverlaps), *communityEvalUsers, *communityOut)
	}
}

// simgraphBench runs the construction/refresh suite and writes out.
func simgraphBench(ds *dataset.Dataset, store *similarity.Store, kernelCfg simgraph.Config, users int, seed uint64, runs, observe int, out string) {
	var r report
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.CPUs = runtime.NumCPU()
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	r.Users = users
	r.Seed = seed
	r.Runs = runs

	pairCfg := kernelCfg
	pairCfg.Pairwise = true

	kernelG, kernelT := timedBuild(ds, store, kernelCfg, runs)
	pairG, pairT := timedBuild(ds, store, pairCfg, runs)
	r.Build.Edges = kernelG.NumEdges()
	r.Build.KernelMs = ms(kernelT)
	r.Build.PairwiseMs = ms(pairT)
	r.Build.Speedup = pairT.Seconds() / kernelT.Seconds()
	r.Build.EdgesPerSecond = float64(kernelG.NumEdges()) / kernelT.Seconds()
	r.Build.BitIdentical = kernelG.NumEdges() == pairG.NumEdges() &&
		simgraph.Diff(pairG, kernelG) == (simgraph.Delta{})
	if !r.Build.BitIdentical {
		log.Fatalf("kernel graph diverged from pairwise reference: %+v", simgraph.Diff(pairG, kernelG))
	}

	n := observe
	if n > len(ds.Actions) {
		n = len(ds.Actions)
	}
	strategies := []repro.UpdateStrategy{
		repro.UpdateFromScratch,
		repro.UpdateWeights,
		repro.UpdateCrossfold,
		repro.UpdateIncremental,
	}
	for _, strat := range strategies {
		r.Refresh = append(r.Refresh, measureRefresh(ds, strat, n, runs))
	}
	r.IncrementalExactOnDirty = incrementalExactOnDirty(ds, n)
	if !r.IncrementalExactOnDirty {
		log.Fatal("incremental update diverged from the from-scratch rebuild on dirty users")
	}

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("build: %d edges, kernel %.1fms vs pairwise %.1fms (%.1fx), %.0f edges/sec\n",
		r.Build.Edges, r.Build.KernelMs, r.Build.PairwiseMs, r.Build.Speedup, r.Build.EdgesPerSecond)
	var scratch, incr refreshEntry
	for _, e := range r.Refresh {
		fmt.Printf("refresh(%s): build %.1fms, write stall %.1fms, write lock held %.2fms, dirty=%d, Δedges +%d/-%d/~%d\n",
			e.Strategy, e.BuildMs, e.WriteStallMs, e.LockHoldMs,
			e.DirtyUsers, e.EdgesAdded, e.EdgesRemoved, e.EdgesReweighted)
		switch e.Strategy {
		case repro.UpdateFromScratch.String():
			scratch = e
		case repro.UpdateIncremental.String():
			incr = e
		}
	}
	if incr.WriteStallMs > 0 {
		fmt.Printf("incremental vs from-scratch: write stall %.1fx, build %.1fx (exact on %d dirty users: %v)\n",
			scratch.WriteStallMs/incr.WriteStallMs, scratch.BuildMs/incr.BuildMs,
			incr.DirtyUsers, r.IncrementalExactOnDirty)
	}
	fmt.Printf("wrote %s\n", out)
}

// parseSuites validates the -suite list against the known families.
func parseSuites(s string) map[string]bool {
	known := map[string]bool{"simgraph": true, "propagation": true, "shard": true, "community": true}
	out := make(map[string]bool)
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if !known[f] {
			log.Fatalf("unknown -suite entry %q (known: simgraph, propagation, shard, community)", f)
		}
		out[f] = true
	}
	if len(out) == 0 {
		log.Fatal("-suite selected no benchmark family")
	}
	return out
}

// parseOverlaps parses the -pruneOverlaps list into thresholds in [0, 1].
func parseOverlaps(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 || v > 1 {
			log.Fatalf("bad -pruneOverlaps entry %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		log.Fatal("-pruneOverlaps selected no thresholds")
	}
	return out
}

// parseShardCounts parses the -shards list ("1,2,4"); empty disables the
// shard benchmark.
func parseShardCounts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			log.Fatalf("bad -shards entry %q", f)
		}
		out = append(out, n)
	}
	return out
}

// measureRefresh times one strategy's RefreshGraphStats, best of runs. Every
// run gets a fresh engine fed the same observe stream: a refresh both
// consumes the store's dirty set and swaps the recommender, so reusing
// an engine would hand later runs (and later strategies) a workload the
// first refresh already absorbed.
func measureRefresh(ds *dataset.Dataset, strategy repro.UpdateStrategy, n, runs int) refreshEntry {
	var best repro.RefreshStats
	for i := 0; i < runs; i++ {
		eng, err := repro.NewEngine(ds, repro.DefaultEngineOptions())
		if err != nil {
			log.Fatal(err)
		}
		for _, a := range ds.Actions[len(ds.Actions)-n:] {
			if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
				log.Fatal(err)
			}
		}
		st := eng.RefreshGraphStats(strategy)
		if i == 0 || st.WriteStall+st.LockHold < best.WriteStall+best.LockHold {
			best = st
		}
	}
	return refreshEntry{
		Strategy:        best.Strategy.String(),
		ObservedActions: n,
		BuildMs:         ms(best.BuildTime),
		WriteStallMs:    ms(best.WriteStall),
		LockHoldMs:      ms(best.LockHold),
		DirtyUsers:      best.DirtyUsers,
		EdgesAdded:      best.EdgesAdded,
		EdgesRemoved:    best.EdgesRemoved,
		EdgesReweighted: best.EdgesReweighted,
	}
}

// incrementalExactOnDirty replays the benchmark's observe stream at the
// library level and verifies the Incremental contract: every dirty
// user's out-edge run under UpdateIncremental is bit-identical to a
// from-scratch Build over the refreshed profiles.
func incrementalExactOnDirty(ds *dataset.Dataset, n int) bool {
	store := similarity.NewStore(ds.NumUsers(), ds.NumTweets(), ds.Actions)
	cfg := simgraph.DefaultConfig()
	prev := simgraph.Build(ds.Graph, store, cfg)
	for _, a := range ds.Actions[len(ds.Actions)-n:] {
		store.Observe(a.User, a.Tweet)
	}
	dirty := store.DrainDirty(nil)
	inc := simgraph.UpdateIncremental(prev, ds.Graph, store, dirty, cfg)
	fs := simgraph.Build(ds.Graph, store, cfg)
	for _, u := range dirty {
		iTo, iW := inc.Out(u)
		fTo, fW := fs.Out(u)
		if len(iTo) != len(fTo) {
			return false
		}
		for i := range iTo {
			if iTo[i] != fTo[i] || iW[i] != fW[i] {
				return false
			}
		}
	}
	return true
}

// timedBuild builds the graph runs times and returns it with the best
// wall time.
func timedBuild(ds *dataset.Dataset, store *similarity.Store, cfg simgraph.Config, runs int) (*wgraph.Graph, time.Duration) {
	var g *wgraph.Graph
	best := time.Duration(0)
	for i := 0; i < runs; i++ {
		start := time.Now()
		g = simgraph.Build(ds.Graph, store, cfg)
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return g, best
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
