// Command mgselect runs a mini-graph selection policy over a workload and
// prints the chosen mini-graphs: template groups, instances, coverage, and
// the serialization classification of each candidate.
//
// Usage:
//
//	mgselect -workload comm.crc32 [-input large] -selector Slack-Profile [-config reduced]
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
)

func main() {
	var (
		wName      = flag.String("workload", "", "workload name")
		input      = flag.String("input", "large", "input set")
		selName    = flag.String("selector", "Struct-All", "selection policy")
		cfgName    = flag.String("config", "reduced", "profiling machine for slack-based policies")
		workers    = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cacheStats = flag.Bool("cachestats", false, "print simulation-cache counters to stderr")
		pipetrace  = flag.Bool("pipetrace", false, "write a per-uop pipetrace of the profiling run (binary; mgtrace -tojsonl converts it)")
		intervals  = flag.Int64("intervals", 0, "sample interval metrics of the profiling run every N cycles (0 = off)")
		tracedir   = flag.String("tracedir", "", "observability output directory (default \"obs\")")
	)
	resolveSample := core.SampleFlags(flag.CommandLine)
	resolveDriver := core.DriverFlags()
	flag.Parse()
	sample, err := resolveSample()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(2)
	}
	if sample != nil && (*pipetrace || *intervals > 0) {
		fmt.Fprintln(os.Stderr, "mgselect: sampled fidelity and observability are mutually exclusive (pipetraces need the real full run)")
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

	t0 := time.Now()
	// Whole-process deltas: profiling and sampled estimation fan out
	// across GOMAXPROCS goroutines.
	um := metrics.MarkProcessUsage()
	ctx, runSpan := metrics.StartSpan(context.Background(), "mgselect.run",
		metrics.L("workload", *wName), metrics.L("selector", *selName))
	bench, err := core.PrepareSharedByName(*wName, *input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(1)
	}
	var prof *slack.Profile
	if sel.NeedsProfile() {
		if o := obs.FlagOptions(*pipetrace, *intervals, *tracedir); o.Active() {
			// Trace the profiling run itself: the singleton execution the
			// slack profile is collected from.
			base := fmt.Sprintf("%s_%s_%s_profile", *wName, *input, cfg.Name)
			watch, werr := obs.NewRunObserver(o, base)
			if werr != nil {
				fmt.Fprintln(os.Stderr, "mgselect:", werr)
				os.Exit(1)
			}
			prof, err = bench.ProfileObserved(cfg, watch)
			if cerr := watch.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err == nil {
				fmt.Fprintf(os.Stderr, "observability files: %v\n", watch.Files())
			}
		} else {
			pctx, prsp := metrics.StartSpan(ctx, "profile", metrics.L("config", cfg.Name))
			prof, err = bench.ProfileCtx(pctx, cfg)
			prsp.End()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgselect:", err)
			os.Exit(1)
		}
	}

	_, ssp := metrics.StartSpan(ctx, "select", metrics.L("policy", sel.Name()))
	chosen := bench.Select(sel, prof)
	ssp.End()
	var est *pipeline.Stats
	var estReport pipeline.SampleReport
	if sample != nil {
		// Sampled quality estimate of the selection just made: a low-fidelity
		// timing run on cfg. The selection itself is always exact — sampling
		// can never change which mini-graphs are chosen.
		sample.Workers = runtime.GOMAXPROCS(0)
		ectx, esp := metrics.StartSpan(ctx, "estimate", metrics.L("config", cfg.Name))
		est, estReport, err = bench.RunSampledReportCtx(ectx, cfg, sel, chosen, *sample)
		esp.End()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgselect:", err)
			os.Exit(1)
		}
	}
	runSpan.End()
	// Selection-only record: Cycles stays 0, so history queries list it but
	// the compare gate never treats it as a timing point, and coverage is
	// the selection's. With -sample-* the record carries the estimated run
	// instead, tagged Estimate so the gate never pairs it with an exact run.
	rec := ledger.Record{Tool: "mgselect", Workload: *wName, Series: sel.Name(),
		Input: *input, Cache: "run", Coverage: chosen.Coverage()}
	if est != nil {
		rec.Series = sel.Name() + " on " + cfg.Name
	}
	if aerr := core.AppendRecord(rec, time.Since(t0), um.Since(), est, sample, nil); aerr != nil {
		fmt.Fprintln(os.Stderr, "mgselect: ledger:", aerr)
	}
	if err := drv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mgselect:", err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s selector=%s candidates=%d\n", *wName, sel.Name(), len(bench.Cands))
	fmt.Printf("selected: %d instances, %d templates, %.1f%% dynamic coverage\n",
		len(chosen.Instances), chosen.NumTemplates, 100*chosen.Coverage())
	if est != nil {
		fmt.Println(core.SampleBanner(*sample, estReport))
		fmt.Printf("estimated IPC on %s with this selection: %.4f\n", cfg.Name, est.IPC())
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
