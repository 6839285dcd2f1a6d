// Bubbles: detect information bubbles in the similarity graph and show
// how bubble-capped re-ranking (the paper's §7 "breaking information
// bubbles" direction) changes a user's feed. For a few active users the
// example prints the plain top-k next to the diversified top-k with the
// bubble composition of each.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)

	ds, err := repro.GenerateDataset(repro.DatasetOptions{Users: 3000, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	opts := repro.DefaultEngineOptions()
	opts.Train = train
	eng, err := repro.NewEngine(ds, opts)
	if err != nil {
		log.Fatal(err)
	}

	assignment, modularity := eng.DetectBubbles()
	fmt.Printf("similarity graph has %d bubbles (modularity %.3f)\n",
		assignment.NumClusters(), modularity)
	for b := int32(0); b < int32(min(5, assignment.NumClusters())); b++ {
		fmt.Printf("  bubble %d: %d users\n", b, assignment.ClusterSize(b))
	}

	// Warm the engine with half of the test stream.
	for _, a := range test[:len(test)/2] {
		if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
			log.Fatal(err)
		}
	}
	now := test[len(test)/2-1].Time

	shown := 0
	for u := repro.UserID(0); int(u) < ds.NumUsers() && shown < 3; u++ {
		plain := eng.Recommend(u, 8, now)
		if len(plain) < 4 {
			continue
		}
		diverse := eng.RecommendDiverse(assignment, u, 8, now, 0.5)
		shown++
		fmt.Printf("\nuser %d (bubble %d)\n", u, assignment.Label(u))
		fmt.Printf("  plain:   %s\n", describe(ds, assignment, plain))
		fmt.Printf("  diverse: %s\n", describe(ds, assignment, diverse))
	}
	if shown == 0 {
		fmt.Println("no user accumulated enough candidates — stream more actions")
	}
}

// describe renders a rec list as tweet(bubble) pairs plus the dominant
// bubble share.
func describe(ds *repro.Dataset, a *repro.BubbleAssignment, recs []repro.Recommendation) string {
	counts := map[int32]int{}
	s := ""
	for i, r := range recs {
		b := a.Label(ds.Tweets[r.Tweet].Author)
		counts[b]++
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d(b%d)", r.Tweet, b)
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	if len(recs) > 0 {
		s += fmt.Sprintf("   [max bubble share %.0f%%]", 100*float64(best)/float64(len(recs)))
	}
	return s
}
