// Selector tour: runs every selection policy in the repository over one
// workload and prints a side-by-side table — the quickest way to see the
// coverage/serialization trade-off each policy makes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/selector"
)

func main() {
	name := flag.String("workload", "media.adpcm_enc", "workload to tour")
	input := flag.String("input", "large", "input set")
	flag.Parse()

	bench, err := core.PrepareByName(*name, *input)
	if err != nil {
		log.Fatal(err)
	}
	full := pipeline.Baseline()
	red := pipeline.Reduced()

	base, err := bench.RunSingleton(full)
	if err != nil {
		log.Fatal(err)
	}
	noMG, err := bench.RunSingleton(red)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s (%s): %d candidates, baseline %d cycles, reduced/no-MG %.3f\n\n",
		*name, *input, len(bench.Cands), base.Cycles, rel(base.Cycles, noMG.Cycles))
	fmt.Printf("%-28s %9s %9s %9s %10s %8s\n",
		"selector", "templates", "instances", "coverage", "reduced", "full")

	selectors := []*selector.Selector{
		selector.StructAll(),
		selector.StructNone(),
		selector.StructBounded(),
		selector.SlackProfile(),
		selector.SlackProfileDelay(),
		selector.SlackProfileSIAL(),
		selector.SlackProfileMem(),
		selector.SlackProfileGlobal(),
		selector.SlackDynamic(),
		selector.IdealSlackDynamic(),
		selector.IdealSlackDynamicDelay(),
	}
	for _, sel := range selectors {
		onRed, err := core.EvalPoint(context.Background(), bench, core.SeriesSpec{Cfg: red, Sel: sel}, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		onFull, err := core.EvalPoint(context.Background(), bench, core.SeriesSpec{Cfg: full, Sel: sel}, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		chosen := onRed.Selection
		fmt.Printf("%-28s %9d %9d %8.1f%% %10.3f %8.3f\n",
			sel.Name(), chosen.NumTemplates, len(chosen.Instances),
			100*onRed.Stats.Coverage(), rel(base.Cycles, onRed.Stats.Cycles), rel(base.Cycles, onFull.Stats.Cycles))
	}
	fmt.Println("\nperformance is IPC relative to the fully-provisioned machine without mini-graphs")
}

func rel(base, cycles int64) float64 { return float64(base) / float64(cycles) }
