package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configures an experiment sweep.
type Options struct {
	// Input is the input set to run ("large" by default).
	Input string
	// Suites restricts the workload population (nil = all four suites).
	Suites []string
	// Workloads further restricts the population to exact workload names
	// (applied after Suites; nil = no name filter). A sweep fails on a
	// name that matches no workload; a known name outside Suites only
	// filters.
	Workloads []string
	// Workers bounds parallelism (0 = GOMAXPROCS); the effective worker
	// count is additionally capped at the number of schedulable tasks.
	Workers int
	// Obs enables per-series-point observability outputs (pipetrace and
	// interval files under Obs.Dir). Observed series runs bypass the
	// result cache — the trace is a side effect a cache hit would swallow
	// — so traces are produced on every run and are byte-identical
	// regardless of worker count or cache mode (each simulation is
	// single-threaded and deterministic).
	Obs *obs.Options
	// Sample runs every timing simulation (series points and the relative-
	// performance baseline) at sampled fidelity instead of full detail —
	// the fast low-fidelity sweep mode. Profiling and selection still run
	// exactly, so the mini-graph sets are identical to a detailed sweep;
	// only the timing numbers become estimates. nil = full detail.
	// Mutually exclusive with Obs (an observer needs the real full run).
	Sample *pipeline.SampleSpec
}

func (o Options) input() string {
	if o.Input == "" {
		return "large"
	}
	return o.Input
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) workloads() []*workload.Workload {
	ws := workload.All()
	if len(o.Suites) > 0 {
		ws = ws[:0:0]
		for _, s := range o.Suites {
			ws = append(ws, workload.BySuite(s)...)
		}
	}
	if len(o.Workloads) == 0 {
		return ws
	}
	keep := make(map[string]bool, len(o.Workloads))
	for _, n := range o.Workloads {
		keep[n] = true
	}
	var out []*workload.Workload
	for _, w := range ws {
		if keep[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// SeriesSpec describes one experiment line: a machine configuration plus a
// selection policy (nil Sel = singleton execution, no mini-graphs).
// ProfCfg overrides the profiling configuration (self-trained on the run
// configuration when nil); ProfInput overrides the profiling input set.
// Limits and Budget are the candidate-enumeration limits and the MGT
// template budget the selection runs under; the zero values select the
// paper's (minigraph.DefaultLimits, DefaultSelectConfig). The design-choice
// ablations vary them.
type SeriesSpec struct {
	Label     string
	Cfg       pipeline.Config
	Sel       *selector.Selector
	ProfCfg   *pipeline.Config
	ProfInput string
	Limits    minigraph.Limits
	Budget    int
}

func (sp SeriesSpec) limits() minigraph.Limits {
	if sp.Limits.MaxLen == 0 {
		return minigraph.DefaultLimits()
	}
	return sp.Limits
}

func (sp SeriesSpec) selectCfg() minigraph.SelectConfig {
	if sp.Budget == 0 {
		return minigraph.DefaultSelectConfig()
	}
	return minigraph.SelectConfig{TemplateBudget: sp.Budget}
}

// SweepResult carries one experiment's outcome: performance relative to the
// fully-provisioned singleton baseline, plus coverage per series.
type SweepResult struct {
	Perf     *stats.Report
	Coverage *stats.Report
}

// RunSweep evaluates every spec on every workload. Performance is reported
// as IPC relative to the fully-provisioned baseline without mini-graphs
// (the paper's y=1 line); coverage as the fraction of dynamic instructions
// embedded in mini-graphs.
//
// Scheduling is fine-grained: a bounded worker pool drains one task per
// (workload, spec) pair, and all repeated work — workload preparation, the
// fully-provisioned baseline, slack profiles, selections, equal runs of
// different series — is deduplicated through the process-wide caches
// (singleflight, so two tasks needing the same profile or run never
// compute it twice). A singleton takes the timing of a profiling run on
// the same machine, one this sweep makes or one an earlier sweep
// completed. Each workload's slack profiles go to the pool ahead of its
// tasks, as jobs of their own (see profileJobs). Series ordering in the
// report is deterministic regardless of completion order.
func RunSweep(title string, opts Options, specs []SeriesSpec) (*SweepResult, error) {
	started := time.Now()
	if opts.Sample != nil && opts.Obs.Active() {
		return nil, fmt.Errorf("sweep %q: sampled fidelity and observability are mutually exclusive (pipetraces need the real full run)", title)
	}
	for _, n := range opts.Workloads {
		if workload.Find(n) == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	// Each sweep is one trace process: tid 0 is the orchestrator, worker k
	// runs as tid k+1.
	ctx := metrics.WithTask(context.Background(), metrics.NextPid(), 0)
	ctx, sweepSpan := metrics.StartSpan(ctx, "sweep",
		metrics.L("title", title), metrics.L("input", opts.input()))
	defer sweepSpan.End()
	sweepSeries.sweeps.Inc()
	if l := tlog(); l != nil {
		l.Info("sweep.start", "title", title, "input", opts.input(),
			"workers", opts.workers(), "nocache", benchCache.Disabled(), "observed", opts.Obs.Active())
	}
	res := &SweepResult{
		Perf:     &stats.Report{Title: title},
		Coverage: &stats.Report{Title: title + " — coverage"},
	}
	perfSeries := make([]*stats.Series, len(specs))
	covSeries := make([]*stats.Series, len(specs))
	for i, sp := range specs {
		perfSeries[i] = stats.NewSeries(sp.Label)
		covSeries[i] = stats.NewSeries(sp.Label)
		res.Perf.Add(perfSeries[i])
		res.Coverage.Add(covSeries[i])
	}

	ws := opts.workloads()
	// Live-progress tracking for /debug/sweep: one entry per (workload,
	// series) task, in task order.
	refs := make([][2]string, 0, len(ws)*len(specs))
	for _, w := range ws {
		for _, sp := range specs {
			refs = append(refs, [2]string{w.Name, sp.Label})
		}
	}
	track := metrics.StartSweep(title, refs)
	defer track.Finish()

	type task struct{ wi, si int }
	tasks := make([]task, 0, len(ws)*len(specs))
	for wi := range ws {
		for si := range specs {
			tasks = append(tasks, task{wi, si})
		}
	}
	vals := make([][2]float64, len(tasks)) // perf, coverage per task
	errs := make([]error, len(tasks))

	workers := opts.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	profiled := ownProfiles(opts.input(), specs)
	// A job is a series task, or a slack profile some of them train on.
	type job struct {
		ti   int                   // index into tasks
		prof func(context.Context) // nil for a series task
	}
	next := make(chan job)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Pin the worker to its OS thread so thread CPU-clock deltas
			// attribute each task's CPU time exactly (sweep tasks simulate
			// single-goroutine, so nothing escapes the pinned thread).
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			wctx := metrics.WithTid(ctx, k+1) // worker k is trace tid k+1 (same pid as the sweep)
			for j := range next {
				if j.prof != nil {
					j.prof(wctx)
					continue
				}
				ti := j.ti
				t := tasks[ti]
				w := ws[t.wi]
				sp := specs[t.si]
				if l := tlog(); l != nil {
					l.Info("task.start", "sweep", title, "workload", w.Name,
						"series", sp.Label, "worker", k)
				}
				track.TaskRunning(ti, k)
				tk := startTask(wctx, w.Name, sp.Label, metrics.MarkUsage)
				var r specResult
				var err error
				// Label the task's goroutine so CPU profiles grabbed from
				// /debug/pprof attribute samples to (workload, spec).
				pprof.Do(tk.Ctx, pprof.Labels("workload", w.Name, "spec", sp.Label), func(ctx context.Context) {
					r, err = evalSpec(ctx, w, sp, opts, profiled)
				})
				d := taskDone{index: ti, workload: w.Name, spec: sp, worker: k, specResult: r, err: err}
				d.wall, d.use = tk.end(r.Cache)
				vals[ti] = [2]float64{r.perf, r.cov}
				errs[ti] = err
				finishTask(title, opts, track, d)
			}
		}(k)
	}
	ti := 0
	for wi, w := range ws {
		// Without caching a profile job's result would be recomputed by
		// every task that needs it.
		if !benchCache.Disabled() {
			for _, prof := range profileJobs(w, opts.input(), specs) {
				next <- job{prof: prof}
			}
		}
		for ; ti < len(tasks) && tasks[ti].wi == wi; ti++ {
			next <- job{ti: ti}
		}
	}
	close(next)
	wg.Wait()

	for ti, t := range tasks {
		if err := errs[ti]; err != nil {
			return nil, fmt.Errorf("%s: %w", ws[t.wi].Name, err)
		}
		perfSeries[t.si].Add(ws[t.wi].Name, vals[ti][0])
		covSeries[t.si].Add(ws[t.wi].Name, vals[ti][1])
	}
	if l := tlog(); l != nil {
		l.Info("sweep.finish", "title", title, "tasks", len(tasks),
			"wall_ms", float64(time.Since(started))/float64(time.Millisecond))
	}
	return res, nil
}

// profCfgOf resolves a spec's profiling configuration (self-trained on the
// run configuration unless overridden).
func profCfgOf(sp SeriesSpec) pipeline.Config {
	if sp.ProfCfg != nil {
		return *sp.ProfCfg
	}
	return sp.Cfg
}

// profileReq is one slack profile a sweep trains on: a machine and an
// input ("" = the sweep's own).
type profileReq struct {
	cfg pipeline.Config
	in  string
}

// profileReqs returns the distinct profiles the series of specs train on,
// in spec order.
func profileReqs(input string, specs []SeriesSpec) []profileReq {
	var out []profileReq
	seen := map[profileReq]bool{}
	for _, sp := range specs {
		if sp.Sel == nil || !sp.Sel.NeedsProfile() {
			continue
		}
		r := profileReq{profCfgOf(sp), sp.ProfInput}
		if r.in == input {
			r.in = ""
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// ownProfiles returns the machines the specs profile on the sweep's own
// input. A singleton on one of them is the run that profile makes.
func ownProfiles(input string, specs []SeriesSpec) map[pipeline.Config]bool {
	own := map[pipeline.Config]bool{}
	for _, r := range profileReqs(input, specs) {
		if r.in == "" {
			own[r.cfg] = true
		}
	}
	return own
}

// profileJobs returns one job per distinct slack profile that the series
// of specs on workload w train on. RunSweep runs these jobs before the
// series tasks, on the same workers and through the same caches. Without
// them, a series task computes its profile, selection and timing run in one
// long piece. A workload has only a few such pieces, so when the host slows
// one worker down, the last piece it holds sets the wall time. With the
// profiles split out, the pool can balance the work.
func profileJobs(w *workload.Workload, input string, specs []SeriesSpec) []func(context.Context) {
	var out []func(context.Context)
	for _, r := range profileReqs(input, specs) {
		cfg, in := r.cfg, r.in
		out = append(out, func(ctx context.Context) {
			ctx, span := metrics.StartSpan(ctx, "profile",
				metrics.L("workload", w.Name), metrics.L("config", cfg.Name))
			defer span.End()
			// The cache keeps no failures: a task that needs this profile
			// computes it again and reports the error.
			if b, err := PrepareSharedCtx(ctx, w, input); err == nil {
				_, _ = collectProfile(ctx, b, cfg, in)
			}
		})
	}
	return out
}

// specResult is one finished sweep task: the series point, the bench it
// ran on (nil when preparation failed), the files its observer wrote, and
// the report values (relative performance, coverage).
type specResult struct {
	Point
	bench     *Bench
	files     []string
	perf, cov float64
}

// evalSpec computes one (workload, spec) task of a sweep: the series point,
// plus what a sweep reports on top of it, the ratio to the relative-
// performance baseline and the coverage. opts.Sample selects low-fidelity
// estimation for both the point and the baseline, so the ratio is estimate
// over estimate; with opts.Obs the point's timing run is observed into its
// own files. profiled holds the machines the sweep profiles on its input
// (ownProfiles). Without caching, each task prepares its own bench and runs
// no profile job, so every run is simulated.
func evalSpec(ctx context.Context, w *workload.Workload, sp SeriesSpec, opts Options, profiled map[pipeline.Config]bool) (specResult, error) {
	var r specResult
	b, err := PrepareSharedCtx(ctx, w, opts.input())
	if err != nil {
		return r, err
	}
	r.bench = b
	base, _, err := timingRun(ctx, b, pipeline.Baseline(), pipeline.MGConfig{}, opts.Sample, profiled)
	if err != nil {
		return r, err
	}
	var watch *obs.Observer
	if opts.Obs.Active() {
		if watch, err = obs.NewRunObserver(opts.Obs, obs.Sanitize(w.Name)+"__"+obs.Sanitize(sp.Label)); err != nil {
			return r, err
		}
	}
	r.Point, err = evalPoint(ctx, b, sp, opts.Sample, watch, profiled)
	if watch != nil {
		if cerr := watch.Close(); err == nil {
			err = cerr
		}
		r.files = watch.Files()
	}
	if err != nil {
		return r, err
	}
	r.perf = float64(base.stats.Cycles) / float64(r.Stats.Cycles)
	r.cov = r.Stats.Coverage()
	return r, nil
}

// --- Figure/table drivers ---

// Fig1 reproduces Figure 1: Slack-Profile vs the two naive selectors on the
// reduced machine.
func Fig1(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Figure 1: serialization-aware selection (reduced machine)", opts, []SeriesSpec{
		{Label: "no mini-graphs", Cfg: red},
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
		{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
	})
}

// Fig3Top reproduces Figure 3 (top): naive selectors on the reduced machine.
func Fig3Top(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Figure 3 top: naive selectors (reduced machine)", opts, []SeriesSpec{
		{Label: "no mini-graphs", Cfg: red},
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
	})
}

// Fig3Bottom reproduces Figure 3 (bottom): naive selectors on the
// fully-provisioned machine, where serialization is exposed.
func Fig3Bottom(opts Options) (*SweepResult, error) {
	base := pipeline.Baseline()
	return RunSweep("Figure 3 bottom: naive selectors (fully-provisioned machine)", opts, []SeriesSpec{
		{Label: "Struct-All", Cfg: base, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: base, Sel: selector.StructNone()},
	})
}

func allFiveSpecs(cfg pipeline.Config) []SeriesSpec {
	return []SeriesSpec{
		{Label: "no mini-graphs", Cfg: cfg},
		{Label: "Struct-All", Cfg: cfg, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: cfg, Sel: selector.StructNone()},
		{Label: "Struct-Bounded", Cfg: cfg, Sel: selector.StructBounded()},
		{Label: "Slack-Profile", Cfg: cfg, Sel: selector.SlackProfile()},
		{Label: "Slack-Dynamic", Cfg: cfg, Sel: selector.SlackDynamic()},
	}
}

// Fig6Top reproduces Figure 6 (top): all selectors on the reduced machine.
func Fig6Top(opts Options) (*SweepResult, error) {
	return RunSweep("Figure 6 top: serialization-aware selectors (reduced machine)",
		opts, allFiveSpecs(pipeline.Reduced()))
}

// Fig6Middle reproduces Figure 6 (middle): all selectors on the
// fully-provisioned machine.
func Fig6Middle(opts Options) (*SweepResult, error) {
	return RunSweep("Figure 6 middle: serialization-aware selectors (fully-provisioned machine)",
		opts, allFiveSpecs(pipeline.Baseline()))
}

// Fig7Top reproduces Figure 7 (top): isolating the Slack-Profile model
// components.
func Fig7Top(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Figure 7 top: Slack-Profile model components (reduced machine)", opts, []SeriesSpec{
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Struct-None", Cfg: red, Sel: selector.StructNone()},
		{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "Slack-Profile-Delay", Cfg: red, Sel: selector.SlackProfileDelay()},
		{Label: "Slack-Profile-SIAL", Cfg: red, Sel: selector.SlackProfileSIAL()},
	})
}

// Fig7Bottom reproduces Figure 7 (bottom): isolating the Slack-Dynamic
// model components.
func Fig7Bottom(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Figure 7 bottom: Slack-Dynamic model components (reduced machine)", opts, []SeriesSpec{
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Slack-Dynamic", Cfg: red, Sel: selector.SlackDynamic()},
		{Label: "Ideal-Slack-Dynamic", Cfg: red, Sel: selector.IdealSlackDynamic()},
		{Label: "Ideal-Slack-Dynamic-Delay", Cfg: red, Sel: selector.IdealSlackDynamicDelay()},
		{Label: "Ideal-Slack-Dynamic-SIAL", Cfg: red, Sel: selector.IdealSlackDynamicSIAL()},
	})
}

// Fig9Top reproduces Figure 9 (top): slack-profile robustness to machine
// configuration, on the MediaBench/CommBench-like suites.
func Fig9Top(opts Options) (*SweepResult, error) {
	if len(opts.Suites) == 0 {
		opts.Suites = []string{"media", "comm"}
	}
	red := pipeline.Reduced()
	w2, w8, dm := pipeline.Width2(), pipeline.Width8(), pipeline.SmallDMem()
	return RunSweep("Figure 9 top: profile robustness to machine configuration", opts, []SeriesSpec{
		{Label: "self-trained", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "cross 2-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w2},
		{Label: "cross 8-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w8},
		{Label: "cross dmem/4", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &dm},
	})
}

// Fig9Bottom reproduces Figure 9 (bottom): slack-profile robustness to
// program input data sets, on the SPECint/MiBench-like suites.
func Fig9Bottom(opts Options) (*SweepResult, error) {
	if len(opts.Suites) == 0 {
		opts.Suites = []string{"intx", "embed"}
	}
	red := pipeline.Reduced()
	return RunSweep("Figure 9 bottom: profile robustness to input data sets", opts, []SeriesSpec{
		{Label: "self-trained", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "cross-input", Cfg: red, Sel: selector.SlackProfile(), ProfInput: "small"},
	})
}

// ResourceSweep generalizes Figure 1 across machine scales: for 2-, 3- and
// 4-wide machines it contrasts singleton execution with Slack-Profile
// mini-graphs, answering the title's question — how many resources can
// mini-graphs buy back? The interesting readings are the iso-performance
// pairs (e.g. "3-wide + mini-graphs vs plain 4-wide").
func ResourceSweep(opts Options) (*SweepResult, error) {
	w2, w3, w4 := pipeline.Width2(), pipeline.Reduced(), pipeline.Baseline()
	return RunSweep("Resource sweep: machine width vs Slack-Profile mini-graphs", opts, []SeriesSpec{
		{Label: "2-wide", Cfg: w2},
		{Label: "2-wide + MG", Cfg: w2, Sel: selector.SlackProfile()},
		{Label: "3-wide", Cfg: w3},
		{Label: "3-wide + MG", Cfg: w3, Sel: selector.SlackProfile()},
		{Label: "4-wide", Cfg: w4},
		{Label: "4-wide + MG", Cfg: w4, Sel: selector.SlackProfile()},
	})
}

// --- Figure 8: limit study ---

// LimitPoint is one mini-graph combination in the exhaustive search.
type LimitPoint struct {
	Mask     uint32 // bit i set = candidate i included
	Coverage float64
	RelPerf  float64 // vs fully-provisioned singleton baseline
}

// LimitResult is the Figure 8 output: the full scatter plus each selector's
// chosen combination.
type LimitResult struct {
	Workload   string
	Candidates []*minigraph.Candidate // the 10 most frequent, disjoint
	Points     []LimitPoint
	Choices    map[string]uint32 // selector name -> mask
	Best       LimitPoint
}

// LimitStudy reproduces the Figure 8 exhaustive search: take the 10 most
// frequently executed non-overlapping candidates of one benchmark, evaluate
// all 1024 subsets on the reduced machine, and compare with what each
// selector would have chosen from the same pool. Each subset is one series
// (selector.Subset) of a sweep over the one workload, so the study runs
// through RunSweep like a figure, with opts' input, workers, sampling and
// observers; opts.Suites and opts.Workloads are ignored.
func LimitStudy(workloadName string, opts Options) (*LimitResult, error) {
	bench, err := PrepareSharedByName(workloadName, opts.input())
	if err != nil {
		return nil, err
	}
	top := topDisjoint(bench, 10)
	if len(top) < 2 {
		return nil, fmt.Errorf("limit study: %s has only %d disjoint candidates", workloadName, len(top))
	}
	n := len(top)
	red := pipeline.Reduced()
	// The selectors' choices below need this profile. Taken first, its run
	// also answers the empty subset, as a sweep's singleton is answered.
	prof, err := bench.Profile(red)
	if err != nil {
		return nil, err
	}

	specs := make([]SeriesSpec, 1<<n)
	for mask := range specs {
		var subset []*minigraph.Candidate
		for i, c := range top {
			if mask&(1<<i) != 0 {
				subset = append(subset, c)
			}
		}
		specs[mask] = SeriesSpec{Label: fmt.Sprintf("%0*b", n, mask), Cfg: red, Sel: selector.Subset(subset)}
	}
	opts.Suites, opts.Workloads = nil, []string{workloadName}
	sw, err := RunSweep("Figure 8: limit study ("+workloadName+")", opts, specs)
	if err != nil {
		return nil, err
	}

	res := &LimitResult{
		Workload:   workloadName,
		Candidates: top,
		Points:     make([]LimitPoint, len(specs)),
		Choices:    make(map[string]uint32),
	}
	for mask := range res.Points {
		res.Points[mask] = LimitPoint{
			Mask:     uint32(mask),
			Coverage: sw.Coverage.Series[mask].Values[workloadName],
			RelPerf:  sw.Perf.Series[mask].Values[workloadName],
		}
	}
	res.Best = res.Points[0]
	for _, pt := range res.Points {
		if pt.RelPerf > res.Best.RelPerf {
			res.Best = pt
		}
	}

	// What would each static selector pick from this pool?
	for _, sel := range []*selector.Selector{
		selector.StructAll(), selector.StructNone(), selector.StructBounded(), selector.SlackProfile(),
	} {
		pool := sel.Pool(bench.Prog, top, prof)
		var mask uint32
		for i, c := range top {
			for _, k := range pool {
				if k == c {
					mask |= 1 << uint(i)
				}
			}
		}
		res.Choices[sel.Name()] = mask
	}
	return res, nil
}

// topDisjoint returns the k most frequently executed pairwise-disjoint
// candidates of a bench, in descending frequency order.
func topDisjoint(b *Bench, k int) []*minigraph.Candidate {
	cands := append([]*minigraph.Candidate(nil), b.Cands...)
	sort.SliceStable(cands, func(i, j int) bool {
		fi := b.Freq[cands[i].Start] * int64(cands[i].N-1)
		fj := b.Freq[cands[j].Start] * int64(cands[j].N-1)
		if fi != fj {
			return fi > fj
		}
		return cands[i].Start < cands[j].Start
	})
	var out []*minigraph.Candidate
	for _, c := range cands {
		if b.Freq[c.Start] == 0 {
			continue
		}
		ok := true
		for _, o := range out {
			if c.Overlaps(o) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
			if len(out) == k {
				break
			}
		}
	}
	return out
}
