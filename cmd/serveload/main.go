// Command serveload drives the Engine's concurrent serving layer the way
// a front-end fleet would: one writer goroutine streams the test split
// through Observe while N reader goroutines hammer Recommend, and the
// tool reports sustained read/write throughput and latency percentiles.
//
// With -debug ADDR the tool also serves the engine's observability
// surface while the load runs: /debug/metrics (text, ?format=json for
// JSON) and the standard /debug/pprof endpoints — the production-shaped
// way to watch lock-hold, drain, and latency histograms live.
//
// With -wal-dir DIR the engine runs durably: every Observe is
// write-ahead logged (fsync policy per -wal-sync), -checkpoint-every
// snapshots in the background, and a restart with the same directory
// recovers the stream — kill -9 mid-run and `simgraphctl -recover DIR`
// gets everything back. A fresh directory is seeded with a bootstrap
// checkpoint before load starts, so the directory is recoverable from
// the first streamed action on.
//
// With -shards N the users are partitioned across N independent engine
// shards behind the consistent-hash router (internal/shard): writes
// quiesce only their owner shard, reads fan out only for cold users,
// and with -wal-dir every shard logs and checkpoints into its own
// subdirectory and recovers independently on restart.
//
// Usage:
//
//	serveload [-users 5000] [-seed 1] [-load ds.bin] [-readers 8]
//	          [-duration 10s] [-k 10] [-postpone] [-diverse]
//	          [-shards 1] [-debug 127.0.0.1:6060] [-refresh-every 0]
//	          [-refresh-strategy update-weights]
//	          [-cluster-prune] [-prune-min-overlap 0]
//	          [-wal-dir DIR] [-wal-sync interval] [-checkpoint-every 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serveload: ")

	var (
		users    = flag.Int("users", 5000, "number of users to generate")
		seed     = flag.Uint64("seed", 1, "generator seed")
		load     = flag.String("load", "", "load a dataset instead of generating")
		readers  = flag.Int("readers", 8, "concurrent Recommend goroutines")
		duration = flag.Duration("duration", 10*time.Second, "how long to drive load")
		k        = flag.Int("k", 10, "recommendations per request")
		postpone = flag.Bool("postpone", false, "enable the postponed-propagation scheduler")
		diverse  = flag.Bool("diverse", false, "readers call RecommendDiverse instead of Recommend")
		debug    = flag.String("debug", "", "serve /debug/metrics and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
		refresh  = flag.Duration("refresh-every", 0, "refresh the similarity graph on this wall-clock period (0 = never)")
		strategy = flag.String("refresh-strategy", "update-weights", "maintenance strategy for -refresh-every: from-scratch, keep-old, crossfold, update-weights, or incremental")
		walDir   = flag.String("wal-dir", "", "durability directory: WAL every Observe and recover from it on start")
		walSync  = flag.String("wal-sync", "interval", "WAL fsync policy: always, interval, or none")
		ckEvery  = flag.Duration("checkpoint-every", 0, "background checkpoint period into -wal-dir (0 = never)")
		shards   = flag.Int("shards", 1, "partition users across this many engine shards via the consistent-hash router (with -wal-dir each shard gets its own WAL+checkpoint subdirectory)")
		prune    = flag.Bool("cluster-prune", false, "detect community embeddings at each refresh and pre-filter candidate generation with them")
		pruneOv  = flag.Float64("prune-min-overlap", 0, "lossy prune threshold for -cluster-prune (0 = provably lossless certificate mode)")
	)
	flag.Parse()
	if *shards > 1 && *diverse {
		log.Fatal("-diverse needs the whole-population bubble assignment; it requires -shards 1")
	}

	start := time.Now()

	// Every serving shape — one engine or a sharded fleet behind the
	// consistent-hash router — drives the same load loops through these.
	var (
		eng         *repro.Engine
		observeFn   func(repro.UserID, repro.TweetID, repro.Timestamp) error
		recommendFn func(repro.UserID, int, repro.Timestamp) []repro.Recommendation
		metricsFn   func() metrics.Snapshot
		refreshFn   func(repro.UpdateStrategy)
	)
	var (
		ds  *repro.Dataset
		err error
	)
	if *load != "" {
		ds, err = dataset.LoadFile(*load)
	} else {
		ds, err = gen.Generate(gen.DefaultConfig(*users, *seed))
	}
	if err != nil {
		log.Fatal(err)
	}

	train, test, err := repro.SplitDataset(ds, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	opts := repro.DefaultEngineOptions()
	opts.Train = train
	opts.Postpone = *postpone
	opts.ClusterPrune = *prune
	opts.PruneMinOverlap = *pruneOv

	if *shards > 1 {
		var router *shard.Router
		if *walDir != "" {
			policy, err := repro.ParseWALSyncPolicy(*walSync)
			if err != nil {
				log.Fatal(err)
			}
			var stats []repro.RecoveryStats
			router, stats, err = shard.Open(*walDir, repro.OpenOptions{
				Engine:          opts,
				Dataset:         ds,
				WALSync:         policy,
				CheckpointEvery: *ckEvery,
			}, shard.Options{Shards: *shards})
			if err != nil {
				log.Fatal(err)
			}
			recovered := false
			for i, rs := range stats {
				if !rs.Recovered {
					continue
				}
				recovered = true
				fmt.Printf("recovered shard %d: checkpoint seq %d (%d actions) + WAL tail %d records (torn=%v) in %v\n",
					i, rs.CheckpointSeq, rs.CheckpointActions, rs.WALRecords, rs.WALTorn,
					rs.Duration.Round(time.Millisecond))
			}
			if !recovered {
				// Fresh directory: seed every shard with a bootstrap
				// checkpoint synchronously, so a kill at any later moment
				// recovers the whole fleet without this process's generated
				// dataset.
				cks, err := router.Checkpoint()
				if err != nil {
					log.Fatal(err)
				}
				var bytes int64
				for _, st := range cks {
					bytes += st.Bytes
				}
				fmt.Printf("durability: fresh %s, bootstrap checkpoints on %d shards (%d bytes, sync=%s)\n",
					*walDir, len(cks), bytes, policy)
			}
		} else if router, err = shard.New(ds, opts, shard.Options{Shards: *shards}); err != nil {
			log.Fatal(err)
		}
		defer router.Close()
		observeFn = router.Observe
		recommendFn = router.Recommend
		metricsFn = router.Metrics
		refreshFn = func(strat repro.UpdateStrategy) {
			t0 := time.Now()
			stats := router.RefreshGraphStats(strat)
			var dirty, added, removed, reweighted int
			for _, st := range stats {
				dirty += st.DirtyUsers
				added += st.EdgesAdded
				removed += st.EdgesRemoved
				reweighted += st.EdgesReweighted
			}
			log.Printf("refresh(%s): fleet wall=%v over %d shards, dirty=%d Δedges=+%d/-%d/~%d",
				strat, time.Since(t0).Round(time.Millisecond), len(stats),
				dirty, added, removed, reweighted)
		}
	} else if *walDir != "" {
		policy, err := repro.ParseWALSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		var rs repro.RecoveryStats
		eng, rs, err = repro.OpenEngine(*walDir, repro.OpenOptions{
			Engine:          opts,
			Dataset:         ds,
			WALSync:         policy,
			CheckpointEvery: *ckEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		if rs.Recovered {
			fmt.Printf("recovered %s: checkpoint seq %d (%d actions) + WAL tail %d records (torn=%v) in %v\n",
				*walDir, rs.CheckpointSeq, rs.CheckpointActions, rs.WALRecords, rs.WALTorn,
				rs.Duration.Round(time.Millisecond))
		} else {
			// Fresh directory: seed a bootstrap checkpoint synchronously so
			// a kill at any later moment recovers without this process's
			// generated dataset.
			st, err := eng.Checkpoint(*walDir)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("durability: fresh %s, bootstrap checkpoint seq %d (%d bytes, sync=%s)\n",
				*walDir, st.Seq, st.Bytes, policy)
		}
	} else if eng, err = repro.NewEngine(ds, opts); err != nil {
		log.Fatal(err)
	}
	if eng != nil {
		observeFn = eng.Observe
		recommendFn = eng.Recommend
		metricsFn = eng.Metrics
		refreshFn = func(strat repro.UpdateStrategy) {
			st := eng.RefreshGraphStats(strat)
			log.Printf("refresh(%s): build=%v write-stall=%v lock=%v dirty=%d Δedges=+%d/-%d/~%d replayed=%d compacted=%d",
				st.Strategy,
				st.BuildTime.Round(time.Millisecond),
				st.WriteStall.Round(time.Microsecond),
				st.LockHold.Round(time.Microsecond),
				st.DirtyUsers, st.EdgesAdded, st.EdgesRemoved, st.EdgesReweighted,
				st.Replayed, st.Compacted)
		}
	}
	fmt.Printf("trained on %d users / %d train actions across %d shard(s) in %v (GOMAXPROCS=%d)\n",
		ds.NumUsers(), len(train), *shards, time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))

	if *debug != "" {
		mux := http.NewServeMux()
		mux.Handle("/", metrics.NewDebugMux(metricsFn))
		srv := &http.Server{Addr: *debug, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug server: %v", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s/debug/metrics (and /debug/pprof)\n", *debug)
	}

	var assignment *repro.BubbleAssignment
	if *diverse {
		assignment, _ = eng.DetectBubbles()
	}
	now := test[len(test)-1].Time

	var (
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		writes atomic.Int64
		reads  atomic.Int64
		readNS atomic.Int64 // total nanoseconds spent inside reads
		// Read latencies go through a genuine reservoir (uniform over the
		// whole run, deterministic seed) so long-run percentiles measure
		// steady state, not the first minute's warm-up.
		samples = loadgen.NewReservoir(1<<16, *seed)
	)

	// Writer: stream the test split in order, looping if the clock runs
	// long. Looped replays re-mark existing shares and get stale-dropped,
	// which is exactly the steady-state shape of a mature stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := test[i%len(test)]
			if err := observeFn(a.User, a.Tweet, a.Time); err != nil {
				log.Fatal(err)
			}
			writes.Add(1)
		}
	}()

	for r := 0; r < *readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			u := id * 7919 % ds.NumUsers()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if *diverse {
					eng.RecommendDiverse(assignment, repro.UserID(u), *k, now, 0.5)
				} else {
					recommendFn(repro.UserID(u), *k, now)
				}
				el := time.Since(t0)
				readNS.Add(int64(el))
				reads.Add(1)
				if i%64 == 0 {
					samples.Observe(el)
				}
				u = (u + 13) % ds.NumUsers()
			}
		}(r)
	}

	// Refresher: periodically rebuild or repair the SimGraph under load,
	// the way a production deployment would cycle its chosen maintenance
	// strategy. Exercises the bounded replay/compaction path and the
	// write-stall and lock-hold histograms; with -refresh-strategy
	// incremental the per-pass cost tracks the dirty-set size.
	if *refresh > 0 {
		strat, err := repro.ParseUpdateStrategy(*strategy)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("refresher: strategy=%q every %v", strat, *refresh)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(*refresh)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					refreshFn(strat)
				}
			}
		}()
	}

	time.Sleep(*duration)
	close(stop)
	wg.Wait()

	secs := duration.Seconds()
	nr, nw := reads.Load(), writes.Load()
	fmt.Printf("readers=%d duration=%v\n", *readers, *duration)
	fmt.Printf("reads : %9d  (%.0f req/s, mean %v)\n", nr, float64(nr)/secs,
		(time.Duration(readNS.Load()) / time.Duration(max64(nr, 1))).Round(time.Microsecond))
	fmt.Printf("writes: %9d  (%.0f obs/s)\n", nw, float64(nw)/secs)
	if samples.Len() > 0 {
		ps := []float64{0.50, 0.90, 0.99}
		qs := samples.Quantiles(ps...)
		for i, p := range ps {
			fmt.Printf("read p%.0f: %v  (reservoir of %d from %d sampled reads)\n",
				p*100, qs[i].Round(time.Microsecond), samples.Len(), samples.Seen())
		}
	}

	fmt.Println("\n--- engine metrics ---")
	if err := metricsFn().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
