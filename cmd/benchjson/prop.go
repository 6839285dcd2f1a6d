package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/ids"
	"repro/internal/propagation"
	"repro/internal/wgraph"
	"repro/internal/xrand"
)

// propReport is the BENCH_propagation.json schema: the epoch-stamped
// AddSeeds kernel versus the frozen RefIncremental on a streaming replay.
type propReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	CPUs        int    `json:"cpus"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Nodes       int    `json:"nodes"`
	Degree      int    `json:"degree"`
	Seed        uint64 `json:"seed"`
	Runs        int    `json:"runs"`

	Kernel struct {
		Tweets       int     `json:"tweets"`
		Actions      int     `json:"replay_actions"`
		RefMs        float64 `json:"ref_replay_ms"`
		KernelMs     float64 `json:"kernel_replay_ms"`
		Speedup      float64 `json:"speedup"`
		BitIdentical bool    `json:"bit_identical"`
	} `json:"kernel"`
}

// propGraph builds the synthetic similarity graph the kernel replay runs
// on — the same shape internal/propagation's benchmarks use.
func propGraph(n, deg int, seed uint64) *wgraph.Graph {
	rng := xrand.New(seed)
	b := wgraph.NewBuilder(n, n*deg)
	b.SetNumNodes(n)
	for i := 0; i < n*deg; i++ {
		b.AddEdge(ids.UserID(rng.Intn(n)), ids.UserID(rng.Intn(n)), float32(rng.Float64()*0.9+0.05))
	}
	return b.Build()
}

// share is one streamed retweet of the synthetic replay.
type share struct {
	tweet int
	user  ids.UserID
}

// propStream interleaves perTweet shares across tweets round-robin, the
// way a live stream spreads retweets over concurrently-hot tweets.
func propStream(n, tweets, perTweet int, seed uint64) []share {
	rng := xrand.New(seed ^ 0x5ca1ab1e)
	out := make([]share, 0, tweets*perTweet)
	for j := 0; j < perTweet; j++ {
		for t := 0; t < tweets; t++ {
			out = append(out, share{tweet: t, user: ids.UserID(rng.Intn(n))})
		}
	}
	return out
}

type addSeedsFunc func(st *propagation.TweetState, seeds []ids.UserID, popularity int)

// replayProp feeds the stream through one propagator, growing per-tweet
// states share by share exactly as the serving path does.
func replayProp(stream []share, tweets int, add addSeedsFunc) ([]*propagation.TweetState, time.Duration) {
	states := make([]*propagation.TweetState, tweets)
	counts := make([]int, tweets)
	start := time.Now()
	for _, s := range stream {
		st := states[s.tweet]
		if st == nil {
			st = propagation.NewTweetState()
			states[s.tweet] = st
		}
		counts[s.tweet]++
		add(st, []ids.UserID{s.user}, counts[s.tweet])
	}
	return states, time.Since(start)
}

// statesIdentical compares two per-tweet state sets exactly: the kernel
// must reproduce the reference fixpoints bit for bit.
func statesIdentical(a, b []*propagation.TweetState) bool {
	for i := range a {
		x, y := a[i], b[i]
		if (x == nil) != (y == nil) {
			return false
		}
		if x == nil {
			continue
		}
		if len(x.P) != len(y.P) || len(x.Seeds) != len(y.Seeds) {
			return false
		}
		for u, p := range x.P {
			if y.P[u] != p {
				return false
			}
		}
		for u := range x.Seeds {
			if _, ok := y.Seeds[u]; !ok {
				return false
			}
		}
	}
	return true
}

// propagationBench runs the kernel comparison and writes
// BENCH_propagation.json.
func propagationBench(nodes, deg, tweets, perTweet, runs int, seed uint64, out string) {
	var r propReport
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.CPUs = runtime.NumCPU()
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	r.Nodes = nodes
	r.Degree = deg
	r.Seed = seed
	r.Runs = runs

	g := propGraph(nodes, deg, seed)
	stream := propStream(nodes, tweets, perTweet, seed)
	cfg := propagation.DefaultConfig()

	var kernelStates, refStates []*propagation.TweetState
	var kernelBest, refBest time.Duration
	for i := 0; i < runs; i++ {
		inc := propagation.NewIncremental(g, cfg)
		states, d := replayProp(stream, tweets, inc.AddSeeds)
		if i == 0 || d < kernelBest {
			kernelBest = d
		}
		kernelStates = states

		ref := propagation.NewRefIncremental(g, cfg)
		states, d = replayProp(stream, tweets, ref.AddSeeds)
		if i == 0 || d < refBest {
			refBest = d
		}
		refStates = states
	}
	r.Kernel.Tweets = tweets
	r.Kernel.Actions = len(stream)
	r.Kernel.KernelMs = ms(kernelBest)
	r.Kernel.RefMs = ms(refBest)
	r.Kernel.Speedup = refBest.Seconds() / kernelBest.Seconds()
	r.Kernel.BitIdentical = statesIdentical(kernelStates, refStates)
	if !r.Kernel.BitIdentical {
		log.Fatal("epoch-stamped kernel diverged from the reference fixpoints")
	}

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("propagation: %d actions, kernel %.1fms vs reference %.1fms (%.1fx), fixpoints bit-identical\n",
		r.Kernel.Actions, r.Kernel.KernelMs, r.Kernel.RefMs, r.Kernel.Speedup)
	if r.Kernel.Speedup < 3 {
		log.Printf("warning: kernel speedup %.2fx below the 3x target", r.Kernel.Speedup)
	}
	fmt.Printf("wrote %s\n", out)
}
