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
	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-18s %s\n", w.Name, w.Suite)
		}
		return
	}
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
	w := workload.Find(*wName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "mgsim: unknown workload %q\n", *wName)
		os.Exit(1)
	}

	var watch *obs.Observer
	if o := obs.FlagOptions(*pipetrace, *intervals, *tracedir); o.Active() {
		base := fmt.Sprintf("%s_%s_%s_%s", *wName, *input, cfg.Name, *selName)
		if watch, err = obs.NewRunObserver(o, base); err != nil {
			fmt.Fprintln(os.Stderr, "mgsim:", err)
			os.Exit(1)
		}
	}
	// Profiling and selection run exactly; with -sample-* only the timing
	// run is estimated.
	sp := core.SeriesSpec{Cfg: cfg, Sel: sel}
	task := core.StartTask(*wName, cfg.Name+"/"+*selName)
	bench, err := core.PrepareSharedCtx(task.Ctx, w, *input)
	var pt core.Point
	if err == nil {
		pt, err = core.EvalPoint(task.Ctx, bench, sp, sample, watch)
	}
	if watch != nil {
		if cerr := watch.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if aerr := task.Finish(ledger.Record{Tool: "mgsim", Input: *input, Files: watch.Files()},
		bench, sp, sample, pt, err); aerr != nil {
		fmt.Fprintln(os.Stderr, "mgsim: ledger:", aerr)
	}
	if err != nil {
		// Keep the failed run's spans; the run error is the one to report.
		_ = drv.Close()
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(1)
	}
	if err := drv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mgsim:", err)
		os.Exit(1)
	}
	if watch != nil {
		fmt.Fprintf(os.Stderr, "observability files: %v\n", watch.Files())
	}

	if drv.Verbose && sel != nil {
		fmt.Printf("selection coverage (static estimate): %.1f%%\n", 100*pt.Selection.Coverage())
	}
	fmt.Printf("workload=%s input=%s config=%s selector=%s\n", *wName, *input, cfg.Name, *selName)
	if sample != nil {
		fmt.Println(core.SampleBanner(*sample, pt.Report))
	}
	fmt.Print(pt.Stats)
	fmt.Fprintln(os.Stderr, metrics.FormatResources(time.Since(runStart)))
}
