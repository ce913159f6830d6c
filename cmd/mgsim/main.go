// Command mgsim runs one workload through the cycle-level simulator on a
// chosen machine configuration and mini-graph selection policy, printing
// IPC and pipeline statistics.
//
// Usage:
//
//	mgsim -workload comm.crc32 [-input large] [-config reduced] [-selector Slack-Profile] [-v]
//
// With -selector none (the default), the run is a pure singleton execution.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/slack"
	"repro/internal/workload"
)

func main() {
	var (
		wName     = flag.String("workload", "", "workload name (see -list)")
		input     = flag.String("input", "large", "input set: small or large")
		cfgName   = flag.String("config", "baseline", "machine: baseline, reduced, 2way, 8way, dmem4")
		selName   = flag.String("selector", "none", "selection policy (or none)")
		list      = flag.Bool("list", false, "list workloads and exit")
		pipetrace = flag.Bool("pipetrace", false, "write a per-uop pipetrace of the run (binary; mgtrace -tojsonl converts it)")
		intervals = flag.Int64("intervals", 0, "sample interval metrics every N cycles (0 = off)")
		tracedir  = flag.String("tracedir", "", "observability output directory (default \"obs\")")
	)
	resolveSample := core.SampleFlags(flag.CommandLine)
	resolveDriver := core.DriverFlags()
	flag.Parse()
	runStart := time.Now()
	sample, err := resolveSample()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(2)
	}
	if sample != nil && (*pipetrace || *intervals > 0) {
		fmt.Fprintln(os.Stderr, "mgsim: sampled fidelity and observability are mutually exclusive (pipetraces need the real full run)")
		os.Exit(2)
	}
	if sample != nil {
		// One workload, independent windows: let them fill the machine.
		sample.Workers = runtime.GOMAXPROCS(0)
	}
	drv, err := resolveDriver()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(1)
	}

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-18s %s\n", w.Name, w.Suite)
		}
		return
	}
	if *wName == "" {
		fmt.Fprintln(os.Stderr, "mgsim: -workload required (use -list to see names)")
		os.Exit(2)
	}
	cfg, err := pipeline.ConfigByName(*cfgName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(2)
	}
	sel, err := selector.ByName(*selName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(2)
	}

	ctx, runSpan := metrics.StartSpan(context.Background(), "mgsim.run",
		metrics.L("workload", *wName), metrics.L("config", *cfgName), metrics.L("selector", *selName))
	_, psp := metrics.StartSpan(ctx, "prepare",
		metrics.L("workload", *wName), metrics.L("input", *input))
	bench, err := core.PrepareByName(*wName, *input)
	psp.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(1)
	}

	t0 := time.Now()
	// Whole-process deltas, not per-thread: sampled runs fan out across
	// GOMAXPROCS goroutines, so a thread CPU clock would undercount.
	um := metrics.MarkProcessUsage()
	var watch *obs.Observer
	if o := obs.FlagOptions(*pipetrace, *intervals, *tracedir); o.Active() {
		base := fmt.Sprintf("%s_%s_%s_%s", *wName, *input, cfg.Name, *selName)
		if watch, err = obs.NewRunObserver(o, base); err != nil {
			fmt.Fprintln(os.Stderr, "mgsim:", err)
			os.Exit(1)
		}
	}

	var st *pipeline.Stats
	var srep pipeline.SampleReport
	if sel == nil {
		sctx, ssp := metrics.StartSpan(ctx, "simulate", metrics.L("config", cfg.Name))
		switch {
		case sample != nil:
			st, srep, err = bench.RunSampledReportCtx(sctx, cfg, nil, nil, *sample)
		case watch != nil:
			st, err = bench.RunObserved(cfg, nil, nil, watch)
		default:
			st, err = bench.RunSingleton(cfg)
		}
		ssp.End()
	} else {
		var prof *slack.Profile
		if sel.NeedsProfile() {
			pctx, prsp := metrics.StartSpan(ctx, "profile", metrics.L("config", cfg.Name))
			prof, err = bench.ProfileCtx(pctx, cfg)
			prsp.End()
			if err != nil {
				fmt.Fprintln(os.Stderr, "mgsim:", err)
				os.Exit(1)
			}
		}
		_, sesp := metrics.StartSpan(ctx, "select", metrics.L("policy", sel.Name()))
		chosen := bench.Select(sel, prof)
		sesp.End()
		if drv.Verbose {
			fmt.Printf("selection coverage (static estimate): %.1f%%\n", 100*chosen.Coverage())
		}
		sctx, ssp := metrics.StartSpan(ctx, "simulate",
			metrics.L("config", cfg.Name), metrics.L("policy", sel.Name()))
		switch {
		case sample != nil:
			// Profiling and selection above ran exactly; only the timing run
			// is estimated.
			st, srep, err = bench.RunSampledReportCtx(sctx, cfg, sel, chosen, *sample)
		case watch != nil:
			st, err = bench.RunObserved(cfg, sel, chosen, watch)
		default:
			st, err = bench.Run(cfg, sel, chosen)
		}
		ssp.End()
	}
	runSpan.End()
	if watch != nil {
		if cerr := watch.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		// Keep the failed run's spans; the run error is the one to report.
		_ = drv.Close()
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(1)
	}
	cache := "run"
	if watch != nil {
		cache = "traced"
	}
	if aerr := core.AppendRecord(ledger.Record{Tool: "mgsim", Workload: *wName,
		Series: cfg.Name + "/" + *selName, Input: *input, Cache: cache,
		Key:   core.TaskKey(bench, core.SeriesSpec{Cfg: cfg, Sel: sel}, sample).Short(),
		Files: watch.Files()}, time.Since(t0), um.Since(), st, sample, nil); aerr != nil {
		fmt.Fprintln(os.Stderr, "mgsim: ledger:", aerr)
	}
	if err := drv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(1)
	}
	if watch != nil {
		fmt.Fprintf(os.Stderr, "observability files: %v\n", watch.Files())
	}

	fmt.Printf("workload=%s input=%s config=%s selector=%s\n", *wName, *input, cfg.Name, *selName)
	if sample != nil {
		fmt.Println(core.SampleBanner(*sample, srep))
	}
	fmt.Print(st)
	fmt.Fprintln(os.Stderr, metrics.FormatResources(time.Since(runStart)))
}
