// Command mgselect runs a mini-graph selection policy over a workload and
// prints the chosen mini-graphs: template groups, instances, coverage, and
// the serialization classification of each candidate.
//
// Usage:
//
//	mgselect -workload comm.crc32 [-input large] -selector Slack-Profile [-config reduced]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/workload"
)

func main() {
	var (
		wName      = flag.String("workload", "", "workload name")
		input      = flag.String("input", "large", "input set")
		selName    = flag.String("selector", "Struct-All", "selection policy")
		cfgName    = flag.String("config", "reduced", "profiling machine for slack-based policies")
		workers    = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cacheStats = flag.Bool("cachestats", false, "print simulation-cache counters to stderr")
	)
	resolveSample := core.SampleFlags(flag.CommandLine)
	resolveDriver := core.DriverFlags()
	flag.Parse()
	sample, err := resolveSample()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(2)
	}
	drv, err := resolveDriver()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(1)
	}
	if *wName == "" {
		fmt.Fprintln(os.Stderr, "mgselect: -workload required")
		os.Exit(2)
	}
	if *workers > 0 {
		// One workload is prepared here, but preparation and profiling can
		// fan out internally; bound the process like core.Options.Workers.
		runtime.GOMAXPROCS(*workers)
	}

	sel, err := selector.ByName(*selName)
	if err == nil && sel == nil {
		err = fmt.Errorf("-selector %q selects nothing; name a policy", *selName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(2)
	}
	// cfg is the profiling machine for slack-based policies and, with
	// -sample-*, the machine the sampled quality estimate runs on.
	cfg, err := pipeline.ConfigByName(*cfgName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(2)
	}
	w := workload.Find(*wName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "mgselect: unknown workload %q\n", *wName)
		os.Exit(1)
	}

	t0 := time.Now()
	sp := core.SeriesSpec{Cfg: cfg, Sel: sel}
	series := sel.Name()
	if sample != nil {
		series += " on " + cfg.Name
		sample.Workers = runtime.GOMAXPROCS(0)
	}
	task := core.StartTask(*wName, series)
	bench, err := core.PrepareSharedCtx(task.Ctx, w, *input)
	var pt core.Point
	switch {
	case err != nil:
	case sample != nil:
		// Sampled quality estimate of the selection: the whole point, timed
		// at low fidelity on cfg. The selection itself is always exact —
		// sampling can never change which mini-graphs are chosen. The record
		// carries the estimated run, tagged Estimate so the compare gate
		// never pairs it with an exact run.
		pt, err = core.EvalPoint(task.Ctx, bench, sp, sample, nil)
	default:
		// The point's select step alone. Its record has no run (Cycles 0):
		// history queries list it, the compare gate skips it, and its
		// coverage is the selection's.
		pt.Selection, pt.Cache, err = core.SelectionFor(task.Ctx, bench, sp)
	}
	if aerr := task.Finish(ledger.Record{Tool: "mgselect", Input: *input}, bench, sp, sample, pt, err); aerr != nil {
		fmt.Fprintln(os.Stderr, "mgselect: ledger:", aerr)
	}
	if err != nil {
		_ = drv.Close()
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(1)
	}
	if err := drv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(1)
	}
	chosen := pt.Selection
	fmt.Printf("workload=%s selector=%s candidates=%d\n", *wName, sel.Name(), len(bench.Cands))
	fmt.Printf("selected: %d instances, %d templates, %.1f%% dynamic coverage\n",
		len(chosen.Instances), chosen.NumTemplates, 100*chosen.Coverage())
	if sample != nil {
		fmt.Println(core.SampleBanner(*sample, pt.Report))
		fmt.Printf("estimated IPC on %s with this selection: %.4f\n", cfg.Name, pt.Stats.IPC())
	}
	for _, in := range chosen.Instances {
		c := in.Cand
		kind := "plain"
		switch {
		case c.Serializing() && !c.BoundedSerialization():
			kind = "serializing(unbounded)"
		case c.Serializing():
			kind = "serializing(bounded)"
		}
		fmt.Printf("\ntemplate %d @ %d (freq %d, %s):\n", in.Template, in.Start, bench.Freq[in.Start], kind)
		for k := 0; k < in.N; k++ {
			fmt.Printf("  %4d  %s\n", in.Start+k, bench.Prog.Code[in.Start+k])
		}
	}
	if *cacheStats {
		core.FprintCacheStats(os.Stderr)
	}
	fmt.Fprintln(os.Stderr, metrics.FormatResources(time.Since(t0)))
}
