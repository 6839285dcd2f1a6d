// Command simgraphctl builds the similarity graph over a dataset and
// reports its structure (Table 4, Figure 5), or runs a single propagation
// to show the §5 algorithm at work.
//
// It is also the durability operator tool: -checkpoint snapshots a
// freshly trained engine into a directory, and -recover opens a
// durability directory (e.g. serveload's -wal-dir after a crash),
// replays checkpoint + WAL tail, and reports what came back — exiting
// non-zero when nothing is recoverable.
//
// Usage:
//
//	simgraphctl [-users 5000] [-seed 1] [-load ds.bin] [-tau 0.02]
//	            [-table4] [-fig5] [-propagate tweetID]
//	            [-checkpoint DIR] [-recover DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/ids"
	"repro/internal/propagation"
	"repro/internal/simgraph"
	"repro/internal/similarity"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simgraphctl: ")

	var (
		users     = flag.Int("users", 5000, "number of users to generate")
		seed      = flag.Uint64("seed", 1, "generator seed")
		load      = flag.String("load", "", "load a dataset instead of generating")
		tau       = flag.Float64("tau", simgraph.DefaultConfig().Tau, "similarity threshold")
		samples   = flag.Int("samples", 64, "BFS sources for path statistics")
		table4    = flag.Bool("table4", false, "print Table 4")
		fig5      = flag.Bool("fig5", false, "print Figure 5")
		propTweet = flag.Int("propagate", -1, "propagate the sharers of this tweet and print the top scores")
		ckptDir   = flag.String("checkpoint", "", "train an engine and write a checkpoint into this directory")
		recDir    = flag.String("recover", "", "recover an engine from this durability directory and report what came back")
	)
	flag.Parse()
	all := !(*table4 || *fig5 || *propTweet >= 0 || *ckptDir != "" || *recDir != "")

	if *recDir != "" {
		runRecover(*recDir)
		return
	}

	var ds *dataset.Dataset
	var err error
	if *load != "" {
		ds, err = dataset.LoadFile(*load)
	} else {
		ds, err = gen.Generate(gen.DefaultConfig(*users, *seed))
	}
	if err != nil {
		log.Fatal(err)
	}

	if *ckptDir != "" {
		runCheckpoint(ds, *ckptDir, *tau)
		return
	}

	opts := eval.DefaultOptions()
	opts.Seed = *seed
	suite := experiments.NewSuite(ds, opts)
	suite.SimGraphCfg.Graph.Tau = *tau

	if all || *table4 {
		out, err := suite.Table4(*samples)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
	if all || *fig5 {
		out, err := suite.Figure5(*samples)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
	if *propTweet >= 0 {
		runPropagation(ds, ids.TweetID(*propTweet), *tau)
	}
}

// runCheckpoint trains an engine on the dataset and snapshots it — the
// operator's way to seed a durability directory from a dataset file.
func runCheckpoint(ds *dataset.Dataset, dir string, tau float64) {
	opts := repro.DefaultEngineOptions()
	opts.Tau = tau
	start := time.Now()
	eng, err := repro.NewEngine(ds, opts)
	if err != nil {
		log.Fatal(err)
	}
	trained := time.Since(start)
	st, err := eng.Checkpoint(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint seq %d: %d bytes, %d live actions, WAL HWM %d (train %v, capture %v, write %v)\n",
		st.Seq, st.Bytes, st.Actions, st.WALHWM, trained.Round(time.Millisecond),
		st.CaptureHold.Round(time.Microsecond), st.Duration.Round(time.Millisecond))
}

// runRecover opens a durability directory, replays checkpoint + WAL
// tail, and reports the recovered engine. Exits non-zero (log.Fatal)
// when the directory holds nothing recoverable — the crash-recovery CI
// job leans on that exit code.
func runRecover(dir string) {
	// Replay under the paper's default engine options (EngineOptions'
	// zero value is documented invalid: β=0 would flood every replayed
	// propagation across the whole graph).
	eng, rs, err := repro.OpenEngine(dir, repro.OpenOptions{Engine: repro.DefaultEngineOptions()})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if !rs.Recovered {
		log.Fatalf("%s holds no recoverable state", dir)
	}
	ds := eng.Dataset()
	fmt.Printf("recovered from %s in %v\n", dir, rs.Duration.Round(time.Millisecond))
	fmt.Printf("  checkpoint : seq %d, %d live actions replayed (%d damaged manifests skipped)\n",
		rs.CheckpointSeq, rs.CheckpointActions, rs.ManifestsSkipped)
	fmt.Printf("  WAL tail   : %d records replayed, torn=%v (%d bytes dropped)\n",
		rs.WALRecords, rs.WALTorn, rs.WALTornBytes)
	if rs.InvalidActions > 0 {
		fmt.Printf("  WARNING    : %d recovered actions were invalid and skipped\n", rs.InvalidActions)
	}
	fmt.Printf("  engine     : %d users, %d tweets, %d observed actions live\n",
		ds.NumUsers(), ds.NumTweets(), len(eng.ObservedActions()))
}

// runPropagation builds the graph, seeds the propagation with the tweet's
// actual sharers and prints the top predicted users.
func runPropagation(ds *dataset.Dataset, t ids.TweetID, tau float64) {
	if int(t) >= ds.NumTweets() {
		log.Fatalf("tweet %d out of range (%d tweets)", t, ds.NumTweets())
	}
	store := similarity.NewStore(ds.NumUsers(), ds.NumTweets(), ds.Actions)
	cfg := simgraph.DefaultConfig()
	cfg.Tau = tau
	g := simgraph.Build(ds.Graph, store, cfg)

	var seeds []ids.UserID
	seeds = append(seeds, ds.Tweets[t].Author)
	for _, a := range ds.Actions {
		if a.Tweet == t {
			seeds = append(seeds, a.User)
		}
	}
	inc := propagation.NewIncremental(g, propagation.DefaultConfig())
	st := propagation.NewTweetState()
	inc.AddSeeds(st, seeds, len(seeds))

	type scored struct {
		u ids.UserID
		s float64
	}
	var top []scored
	for u, p := range st.P {
		if _, isSeed := st.Seeds[u]; !isSeed && p > propagation.MinScore {
			top = append(top, scored{u, p})
		}
	}
	fmt.Printf("tweet %d: %d sharers, propagation reached %d users in %d rounds\n",
		t, len(seeds), len(top), inc.LastRounds())

	sort.Slice(top, func(i, j int) bool {
		if top[i].s != top[j].s {
			return top[i].s > top[j].s
		}
		return top[i].u < top[j].u
	})
	if len(top) > 15 {
		top = top[:15]
	}
	for _, sc := range top {
		fmt.Printf("  user %-8d p=%.5f\n", sc.u, sc.s)
	}
}
