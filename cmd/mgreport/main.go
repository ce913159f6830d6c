// Command mgreport regenerates the paper's tables and figures: it runs the
// corresponding experiment sweep over the workload suite and prints summary
// tables plus ASCII S-curve plots.
//
// Usage:
//
//	mgreport -exp fig6           # one experiment
//	mgreport -exp all            # everything (Table 1, Figures 1,3,6,7,8,9)
//	mgreport -exp fig8 -workload comm.gen01
//	mgreport -attrib comm.crc32 -input small
//
// Experiments: table1, fig1, fig3, fig6, fig7top, fig7bot, fig8, fig9top,
// fig9bot, sweep, ablation, all.
//
// The -attrib mode runs the cycle-loss attribution engine end-to-end for
// one workload instead of an experiment: it profiles, selects mini-graphs
// under -attribsel, simulates on -attribcfg with a pipetrace attached,
// walks the critical path (internal/critpath), and prints the cycle-loss
// breakdown, the per-template serialization scoreboard, and the
// predicted-vs-observed slack comparison against the static profiler.
// -attribout BASE additionally writes BASE.json and BASE.csv.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id")
		input      = flag.String("input", "large", "input set")
		wName      = flag.String("workload", "media.adpcm_enc", "workload for the fig8 limit study")
		workloads  = flag.String("only", "", "comma-separated workload names to restrict sweeps to")
		plots      = flag.Bool("plots", true, "render ASCII S-curve plots")
		progress   = flag.Bool("progress", false, "print per-workload progress")
		workers    = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		nocache    = flag.Bool("nocache", false, "bypass the simulation caches: re-prepare and re-simulate everything")
		cacheStats = flag.Bool("cachestats", false, "print simulation-cache counters to stderr")
		pipetrace  = flag.Bool("pipetrace", false, "write a per-uop pipetrace per (workload, series) (binary; mgtrace -tojsonl converts it)")
		intervals  = flag.Int64("intervals", 0, "sample interval metrics every N cycles (0 = off)")
		tracedir   = flag.String("tracedir", "", "observability output directory (default \"obs\")")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		attribW    = flag.String("attrib", "", "run cycle-loss attribution on this workload instead of an experiment")
		attribSel  = flag.String("attribsel", "Slack-Profile", "selection policy for -attrib")
		attribCfg  = flag.String("attribcfg", "reduced", "machine configuration for -attrib")
		attribOut  = flag.String("attribout", "", "base path for -attrib JSON/CSV artifacts")
		attribTop  = flag.Int("attribtop", 10, "offender/comparison rows to print in -attrib")
		watchdog   = flag.Bool("watchdog", false, "arm the sweep watchdog: report tasks running far past the sweep median and wedged sweeps to /debug/sweep and the -v telemetry log")
		wdSlow     = flag.Float64("watchdog-slow", 8, "with -watchdog: flag a task once it exceeds this multiple of the sweep's median task time")
		wdWedge    = flag.Duration("watchdog-wedge", 2*time.Minute, "with -watchdog: flag the sweep when no task completes for this long")
	)
	resolveSample := core.SampleFlags(flag.CommandLine)
	resolveDriver := core.DriverFlags()
	flag.Parse()
	runStart := time.Now()
	sample, err := resolveSample()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgreport:", err)
		os.Exit(2)
	}
	if sample != nil && *attribW != "" {
		fmt.Fprintln(os.Stderr, "mgreport: -attrib needs the full-detail run (attribution walks the real pipetrace); drop the -sample-* flags")
		os.Exit(2)
	}
	if *nocache {
		core.SetCachingDisabled(true)
	}
	drv, err := resolveDriver()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgreport:", err)
		os.Exit(1)
	}

	if *attribW != "" {
		err := attrib(os.Stdout, *attribW, *input, *attribSel, *attribCfg, *attribOut, *attribTop)
		if cerr := drv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgreport:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, metrics.FormatResources(time.Since(runStart)))
		return
	}

	opts := core.Options{Input: *input, Workers: *workers,
		Obs: obs.FlagOptions(*pipetrace, *intervals, *tracedir), Sample: sample}
	if *watchdog {
		opts.Watchdog = &core.WatchdogConfig{SlowFactor: *wdSlow, Wedge: *wdWedge}
	}
	if sample != nil {
		fmt.Fprintf(os.Stderr, "sampled fidelity %s: series and relative-baseline stats are estimates; profiling and selection stay exact\n", sample.Summary())
	}
	if *workloads != "" {
		opts.Workloads = splitNames(*workloads)
	}
	if *progress {
		opts.Progress = os.Stderr
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgreport:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mgreport:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	if err := run(os.Stdout, *exp, *wName, *plots, opts); err != nil {
		pprof.StopCPUProfile()
		fmt.Fprintln(os.Stderr, "mgreport:", err)
		os.Exit(1)
	}
	fmt.Printf("\n[%s completed in %v]\n", *exp, time.Since(start).Round(time.Millisecond))
	if err := drv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mgreport:", err)
		os.Exit(1)
	}
	if *cacheStats {
		core.FprintCacheStats(os.Stderr)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgreport:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mgreport:", err)
			os.Exit(1)
		}
		f.Close()
	}
	fmt.Fprintln(os.Stderr, metrics.FormatResources(time.Since(runStart)))
}

// splitNames splits a comma-separated list, dropping empty entries.
func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

func run(w io.Writer, exp, limitWorkload string, plots bool, opts core.Options) error {
	switch exp {
	case "table1":
		printTable1(w)
		return nil
	case "fig1":
		return sweep(w, plots, opts, core.Fig1)
	case "fig3":
		if err := sweep(w, plots, opts, core.Fig3Top); err != nil {
			return err
		}
		return sweep(w, plots, opts, core.Fig3Bottom)
	case "fig6":
		if err := sweep(w, plots, opts, core.Fig6Top); err != nil {
			return err
		}
		return sweep(w, plots, opts, core.Fig6Middle)
	case "fig7top":
		return sweep(w, plots, opts, core.Fig7Top)
	case "fig7bot":
		return sweep(w, plots, opts, core.Fig7Bottom)
	case "fig8":
		return limitStudy(w, limitWorkload, opts)
	case "fig9top":
		return sweep(w, plots, opts, core.Fig9Top)
	case "fig9bot":
		return sweep(w, plots, opts, core.Fig9Bottom)
	case "sweep":
		return sweep(w, plots, opts, core.ResourceSweep)
	case "ablation":
		for _, f := range []func(core.Options) (*core.SweepResult, error){
			core.AblationMaxLen, core.AblationMaxInputs, core.AblationBudget,
			core.AblationMGIssue, core.AblationLatencyModel, core.AblationSlackScope,
		} {
			res, err := f(opts)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res.Perf.SummaryTable())
			fmt.Fprintln(w, res.Coverage.SummaryTable())
		}
		return nil
	case "all":
		printTable1(w)
		for _, f := range []func(core.Options) (*core.SweepResult, error){
			core.Fig1, core.Fig3Top, core.Fig3Bottom, core.Fig6Top, core.Fig6Middle,
			core.Fig7Top, core.Fig7Bottom,
		} {
			if err := sweep(w, plots, opts, f); err != nil {
				return err
			}
		}
		if err := limitStudy(w, limitWorkload, opts); err != nil {
			return err
		}
		if err := sweep(w, plots, opts, core.Fig9Top); err != nil {
			return err
		}
		return sweep(w, plots, opts, core.Fig9Bottom)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func sweep(w io.Writer, plots bool, opts core.Options, f func(core.Options) (*core.SweepResult, error)) error {
	res, err := f(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res.Perf.SummaryTable())
	if plots {
		fmt.Fprintln(w, res.Perf.SCurvePlot(78, 16, 0.5, 1.6))
	}
	fmt.Fprintln(w, res.Coverage.SummaryTable())
	return nil
}

func limitStudy(w io.Writer, workloadName string, opts core.Options) error {
	if opts.Input == "" || opts.Input == "large" {
		opts.Input = "small" // the paper uses a short-running benchmark
	}
	lr, err := core.LimitStudy(workloadName, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8: limit study on %s (%s input): all %d combinations of %d mini-graphs\n",
		lr.Workload, opts.Input, len(lr.Points), len(lr.Candidates))
	fmt.Fprintf(w, "%-18s %12s %10s %8s\n", "set", "mask", "coverage", "perf")
	fmt.Fprintf(w, "%-18s %12b %10.3f %8.3f\n", "exhaustive-best", lr.Best.Mask, lr.Best.Coverage, lr.Best.RelPerf)
	for _, name := range []string{"Struct-All", "Struct-None", "Struct-Bounded", "Slack-Profile"} {
		mask := lr.Choices[name]
		pt := lr.Points[mask]
		fmt.Fprintf(w, "%-18s %12b %10.3f %8.3f\n", name, mask, pt.Coverage, pt.RelPerf)
	}
	// Scatter rendered as a coarse text heat map: coverage (x) vs perf (y).
	fmt.Fprintln(w, "\nscatter (x=coverage, y=relative performance, *=combinations):")
	const W, H = 64, 16
	var grid [H][W]byte
	for i := range grid {
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	minP, maxP := lr.Points[0].RelPerf, lr.Points[0].RelPerf
	maxC := 0.0
	for _, pt := range lr.Points {
		if pt.RelPerf < minP {
			minP = pt.RelPerf
		}
		if pt.RelPerf > maxP {
			maxP = pt.RelPerf
		}
		if pt.Coverage > maxC {
			maxC = pt.Coverage
		}
	}
	if maxP == minP {
		maxP = minP + 1e-9
	}
	if maxC == 0 {
		maxC = 1e-9
	}
	for _, pt := range lr.Points {
		x := int(pt.Coverage / maxC * (W - 1))
		y := int((pt.RelPerf - minP) / (maxP - minP) * (H - 1))
		grid[H-1-y][x] = '*'
	}
	mark := func(mask uint32, c byte) {
		pt := lr.Points[mask]
		x := int(pt.Coverage / maxC * (W - 1))
		y := int((pt.RelPerf - minP) / (maxP - minP) * (H - 1))
		grid[H-1-y][x] = c
	}
	mark(lr.Choices["Struct-All"], 'A')
	mark(lr.Choices["Struct-None"], 'N')
	mark(lr.Choices["Struct-Bounded"], 'B')
	mark(lr.Choices["Slack-Profile"], 'P')
	mark(lr.Best.Mask, 'X')
	for i := 0; i < H; i++ {
		yVal := maxP - float64(i)*(maxP-minP)/float64(H-1)
		fmt.Fprintf(w, "%6.3f |%s|\n", yVal, string(grid[i][:]))
	}
	fmt.Fprintf(w, "        coverage 0 .. %.2f   A=Struct-All N=Struct-None B=Struct-Bounded P=Slack-Profile X=best\n\n", maxC)
	return nil
}

func printTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: simulated processors")
	for _, cfg := range []pipeline.Config{pipeline.Baseline(), pipeline.Reduced()} {
		fmt.Fprintf(w, "\n%s:\n", cfg.Name)
		fmt.Fprintf(w, "  %d-way fetch/issue/commit, %d-entry issue queue, %d physical registers\n",
			cfg.FetchWidth, cfg.IQEntries, cfg.PhysRegs)
		fmt.Fprintf(w, "  %d-entry ROB, %d-entry load queue, %d-entry store queue\n",
			cfg.ROBEntries, cfg.LQEntries, cfg.SQEntries)
		fmt.Fprintf(w, "  issue ports: %d simple int, %d complex, %d load, %d store\n",
			cfg.SimplePorts, cfg.ComplexPorts, cfg.LoadPorts, cfg.StorePorts)
		fmt.Fprintf(w, "  mini-graphs: <=4 instrs, <=%d per cycle (<=%d with memory), 512-entry MGT\n",
			cfg.MaxMGIssue, cfg.MaxMemMGIssue)
		h := cfg.Hier
		fmt.Fprintf(w, "  memory: %dKB/%d-way/%dc L1s, %dKB L1D, %dMB/%d-way/%dc L2, %dc memory\n",
			h.L1I.Size>>10, h.L1I.Assoc, h.L1I.Latency, h.L1D.Size>>10,
			h.L2.Size>>20, h.L2.Assoc, h.L2.Latency, h.MemLatency)
		fmt.Fprintf(w, "  branch prediction: hybrid bimodal/gshare (24Kb), 2K-entry 4-way BTB, 32-entry RAS\n")
	}
	fmt.Fprintln(w)
}
