// Quickstart: build a small program with the assembler API, discover and
// select mini-graphs, and compare singleton vs mini-graph execution on the
// fully-provisioned and reduced machines.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/selector"
)

func main() {
	// A checksum loop: four independent two-instruction chains per
	// iteration — ideal mini-graph material.
	b := prog.NewBuilder("quickstart")
	data := b.Space(256 * 4)
	b.Li(1, data)
	b.Li(2, 256)
	b.Label("loop")
	b.Ldw(3, 1, 0)
	b.Addi(4, 3, 0x11)
	b.Xori(4, 4, 0x5A)
	b.Slli(5, 3, 3)
	b.Xori(5, 5, 0x33)
	b.Add(0, 0, 4)
	b.Add(0, 0, 5)
	b.Addi(1, 1, 4)
	b.Subi(2, 2, 1)
	b.Bnez(2, "loop")
	b.Halt()
	p := b.MustBuild()

	// Functional execution produces the committed trace.
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program: %d static instrs, %d dynamic, checksum %#x\n",
		p.NumInstrs(), res.DynInstrs, res.Checksum())

	// Discover mini-graph candidates and select with Struct-None (the
	// conservative serialization-free policy needs no profile).
	cands := minigraph.Enumerate(p, minigraph.DefaultLimits())
	pool := selector.StructNone().Pool(p, cands, nil)
	freq := minigraph.Frequencies(p.NumInstrs(), indicesOf(res.Trace))
	sel := minigraph.Select(p, pool, freq, minigraph.DefaultSelectConfig())
	fmt.Printf("candidates: %d total, %d serialization-free; selected %d instances (%d templates), %.1f%% coverage\n",
		len(cands), len(pool), len(sel.Instances), sel.NumTemplates, 100*sel.Coverage())

	// Time the four combinations.
	for _, cfg := range []pipeline.Config{pipeline.Baseline(), pipeline.Reduced()} {
		plain, err := pipeline.Run(p, res.Trace, cfg, pipeline.MGConfig{}, nil)
		if err != nil {
			log.Fatal(err)
		}
		mg, err := pipeline.Run(p, res.Trace, cfg, pipeline.MGConfig{Selection: sel}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s singleton: %6d cycles (IPC %.2f)   mini-graphs: %6d cycles (IPC %.2f, %+.1f%%)\n",
			cfg.Name, plain.Cycles, plain.IPC(), mg.Cycles, mg.IPC(),
			100*(float64(plain.Cycles)/float64(mg.Cycles)-1))
	}

	// The same flow in one call via the orchestration layer, on a real
	// workload from the suite.
	bench, err := core.PrepareByName("media.fir", "small")
	if err != nil {
		log.Fatal(err)
	}
	pt, err := core.EvalPoint(context.Background(), bench,
		core.SeriesSpec{Cfg: pipeline.Reduced(), Sel: selector.SlackProfile()}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmedia.fir with Slack-Profile on the reduced machine: IPC %.2f, coverage %.1f%% (%d templates)\n",
		pt.Stats.IPC(), 100*pt.Stats.Coverage(), pt.Selection.NumTemplates)
	_ = isa.NumRegs
}

func indicesOf(tr []emu.Rec) []int32 {
	out := make([]int32, len(tr))
	for i, r := range tr {
		out[i] = r.Index
	}
	return out
}
