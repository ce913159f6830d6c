// Limit study (Figure 8): exhaustively evaluates all 1024 combinations of
// the 10 hottest disjoint mini-graph candidates of two benchmarks — the
// paper's adpcm and a serialization-prone generated program — and compares
// each selector's choice against the best set found by exhaustive search.
//
// The second benchmark demonstrates the paper's "non-decomposability"
// observation: the best set excludes a mini-graph that per-candidate
// reasoning (even Slack-Profile's) accepts.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
)

func main() {
	for _, name := range []string{"media.adpcm_enc", "comm.gen01"} {
		lr, err := core.LimitStudy(name, core.Options{Input: "small"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s: %d combinations of %d mini-graphs ===\n",
			lr.Workload, len(lr.Points), len(lr.Candidates))
		fmt.Println("the candidate pool:")
		for i, c := range lr.Candidates {
			fmt.Printf("  %2d: %s\n", i, c)
		}

		// Pareto view: best performance at each coverage decile.
		sort.Slice(lr.Points, func(i, j int) bool { return lr.Points[i].Coverage < lr.Points[j].Coverage })
		fmt.Println("\ncoverage-bucket best performance (the scatter's upper envelope):")
		const buckets = 8
		maxCov := lr.Points[len(lr.Points)-1].Coverage
		for b := 0; b < buckets; b++ {
			lo := maxCov * float64(b) / buckets
			hi := maxCov * float64(b+1) / buckets
			best := -1.0
			for _, pt := range lr.Points {
				if pt.Coverage >= lo && pt.Coverage <= hi && pt.RelPerf > best {
					best = pt.RelPerf
				}
			}
			if best > 0 {
				fmt.Printf("  coverage %4.1f%%..%4.1f%%: best %.3f\n", 100*lo, 100*hi, best)
			}
		}

		fmt.Println("\nselector choices vs exhaustive best:")
		fmt.Printf("  %-16s cov=%5.1f%% perf=%.3f (mask %010b)\n", "exhaustive-best",
			100*lr.Best.Coverage, lr.Best.RelPerf, lr.Best.Mask)
		for _, sel := range []string{"Struct-All", "Struct-None", "Struct-Bounded", "Slack-Profile"} {
			mask := lr.Choices[sel]
			var pt core.LimitPoint
			for _, q := range lr.Points {
				if q.Mask == mask {
					pt = q
				}
			}
			fmt.Printf("  %-16s cov=%5.1f%% perf=%.3f (mask %010b)\n", sel, 100*pt.Coverage, pt.RelPerf, mask)
		}
		fmt.Println()
	}
}
