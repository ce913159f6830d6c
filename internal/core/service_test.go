package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/slack"
	"repro/internal/stats"
)

// smallSweepOpts restricts a sweep to one suite on the small input to keep
// cache tests fast.
func smallSweepOpts() Options {
	return Options{Input: "small", Suites: []string{"comm"}}
}

func smallSpecs() []SeriesSpec {
	red := pipeline.Reduced()
	return []SeriesSpec{
		{Label: "no mini-graphs", Cfg: red},
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
	}
}

// TestPrepareExactlyOnceAcrossSweeps asserts the headline cache property:
// repeated sweeps (as `mgreport -exp all` issues) prepare each workload
// exactly once and re-simulate nothing.
func TestPrepareExactlyOnceAcrossSweeps(t *testing.T) {
	ResetCaches()
	opts := smallSweepOpts()
	nWorkloads := len(opts.workloads())
	if nWorkloads == 0 {
		t.Fatal("no workloads in suite")
	}

	first, err := RunSweep("first", opts, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	c := Caches()
	if got := c.Benches.Misses; got != int64(nWorkloads) {
		t.Errorf("after first sweep: %d bench preparations, want %d", got, nWorkloads)
	}
	resultMisses := c.Results.Misses
	if resultMisses == 0 {
		t.Fatal("first sweep should populate the result cache")
	}

	second, err := RunSweep("second", opts, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	c = Caches()
	if got := c.Benches.Misses; got != int64(nWorkloads) {
		t.Errorf("second sweep re-prepared workloads: %d preparations, want %d", got, nWorkloads)
	}
	if c.Results.Misses != resultMisses {
		t.Errorf("second sweep re-simulated: %d result misses, want %d", c.Results.Misses, resultMisses)
	}
	if c.Results.Hits == 0 {
		t.Error("second sweep should hit the result cache")
	}
	assertSweepsEqual(t, first, second)
}

// TestCachedMatchesUncached asserts the correctness property behind the
// whole service layer: caching changes nothing about the numbers (the
// uncached sweep is what -nocache runs).
func TestCachedMatchesUncached(t *testing.T) {
	ResetCaches()
	opts := smallSweepOpts()
	cached, err := RunSweep("cached", opts, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	SetCachingDisabled(true)
	defer SetCachingDisabled(false)
	uncached, err := RunSweep("uncached", opts, smallSpecs())
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, cached, uncached)
}

// TestConcurrentSweepsShareCache runs two identical sweeps concurrently
// (run under -race): singleflight must dedupe their work and both must see
// identical results.
func TestConcurrentSweepsShareCache(t *testing.T) {
	ResetCaches()
	opts := smallSweepOpts()
	nWorkloads := int64(len(opts.workloads()))
	var wg sync.WaitGroup
	results := make([]*SweepResult, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunSweep("concurrent", opts, smallSpecs())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	assertSweepsEqual(t, results[0], results[1])
	c := Caches()
	if c.Benches.Misses != nWorkloads {
		t.Errorf("concurrent sweeps prepared %d benches, want %d (singleflight)", c.Benches.Misses, nWorkloads)
	}
}

// TestProfileJobsDistinct checks that a sweep schedules one profile job per
// distinct (configuration, input) its series train on, and none for series
// that need no profile.
func TestProfileJobsDistinct(t *testing.T) {
	red, w8 := pipeline.Reduced(), pipeline.Width8()
	specs := []SeriesSpec{
		{Label: "singleton", Cfg: red},
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "self-trained", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "self-trained, input named", Cfg: red, Sel: selector.SlackProfile(), ProfInput: "small"},
		{Label: "cross 8-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w8},
		{Label: "cross 8-way again", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w8},
		{Label: "cross input", Cfg: red, Sel: selector.SlackProfile(), ProfInput: "large"},
	}
	w := smallSweepOpts().workloads()[0]
	if got := len(profileJobs(w, "small", specs)); got != 3 {
		t.Errorf("%d profile jobs, want 3: reduced, 8-way, reduced on large", got)
	}
}

// fig6Specs is Figure 6 top and middle in one sweep: every policy on the
// reduced and on the fully-provisioned machine.
func fig6Specs() []SeriesSpec {
	var specs []SeriesSpec
	for _, cfg := range []pipeline.Config{pipeline.Reduced(), pipeline.Baseline()} {
		for _, sp := range allFiveSpecs(cfg) {
			sp.Label = cfg.Name + "/" + sp.Label
			specs = append(specs, sp)
		}
	}
	return specs
}

// runContent names a timing run by what the pipeline receives, spelled out
// independently of runKey: the machine, the monitor flags and the selected
// instances.
func runContent(cfg pipeline.Config, mg pipeline.MGConfig) string {
	s := fmt.Sprintf("%s dyn=%v/%v/%v/%v", cfg.Name,
		mg.Dynamic, mg.DynamicDelayOnly, mg.DynamicSIAL, mg.IdealOutlining)
	if mg.Selection != nil {
		s += fmt.Sprintf(" templates=%d", mg.Selection.NumTemplates)
		for _, in := range mg.Selection.Instances {
			s += fmt.Sprintf(" %d+%d:%d", in.Start, in.N, in.Template)
		}
	}
	return s
}

// TestSweepSimulatesEachRunOnce checks that a Fig 6 sweep simulates each
// distinct run once: one profiling run per (program, profiled machine),
// plus one run per distinct (machine, mini-graph configuration) that no
// profile answers. A singleton on a profiled machine is that profile's run,
// and equal selections of different policies share one run. The numbers
// must match the same sweep without caches.
func TestSweepSimulatesEachRunOnce(t *testing.T) {
	ResetCaches()
	opts := smallSweepOpts()
	specs := fig6Specs()
	runs := EnableMetrics().Counter("mg_sim_runs_total", "completed timing-simulator runs")
	before, results0 := runs.Value(), Caches().Results.Misses
	cached, err := RunSweep("runs", opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	simulated, resultMisses := runs.Value()-before, Caches().Results.Misses-results0

	var profiles, others int64 // profiling runs; runs no profile answers
	for _, w := range opts.workloads() {
		b, err := PrepareShared(w, opts.Input)
		if err != nil {
			t.Fatal(err)
		}
		profiled := map[pipeline.Config]bool{}
		distinct := map[string]bool{runContent(pipeline.Baseline(), pipeline.MGConfig{}): true}
		for _, sp := range specs {
			var mg pipeline.MGConfig
			if sp.Sel != nil {
				var prof *slack.Profile
				if sp.Sel.NeedsProfile() {
					profiled[sp.Cfg] = true
					if prof, err = b.Profile(sp.Cfg); err != nil {
						t.Fatal(err)
					}
				}
				mg = mgConfigFor(sp.Sel, b.Select(sp.Sel, prof))
			}
			distinct[runContent(sp.Cfg, mg)] = true
		}
		for cfg := range profiled {
			delete(distinct, runContent(cfg, pipeline.MGConfig{}))
		}
		profiles += int64(len(profiled))
		others += int64(len(distinct))
	}
	if simulated != profiles+others {
		t.Errorf("sweep simulated %d runs, want %d: %d profiles and %d distinct runs no profile answers",
			simulated, profiles+others, profiles, others)
	}
	if resultMisses != others {
		t.Errorf("result cache: %d misses, want one per timing run outside profiling (%d)",
			resultMisses, others)
	}

	SetCachingDisabled(true)
	defer SetCachingDisabled(false)
	uncached, err := RunSweep("runs, uncached", opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, cached, uncached)
}

// TestTaskOutcomeHonest checks that a task reports "miss" only when it
// simulated: the second of two policies with equal selections, a singleton
// answered by the sweep's slack profile, and a singleton in a later sweep
// answered by that completed profile report "hit" in their task span and
// in their run-ledger record, and the later sweep simulates nothing.
// Without caching every task simulates and reports "miss", and no
// singleton takes a profile.
func TestTaskOutcomeHonest(t *testing.T) {
	ResetCaches()
	red := pipeline.Reduced()
	var name string
	for _, w := range smallSweepOpts().workloads() {
		b, err := PrepareShared(w, "small")
		if err != nil {
			t.Fatal(err)
		}
		all := mgConfigFor(selector.StructAll(), b.Select(selector.StructAll(), nil))
		bounded := mgConfigFor(selector.StructBounded(), b.Select(selector.StructBounded(), nil))
		if all.Enabled() && runContent(red, all) == runContent(red, bounded) {
			name = w.Name
			break
		}
	}
	if name == "" {
		t.Fatal("no comm program on which Struct-All and Struct-Bounded select alike")
	}

	l, err := ledger.Open(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	SetLedger(l)
	defer SetLedger(nil)
	defer l.Close()
	tr := metrics.NewTracer()
	metrics.InstallTracer(tr)
	defer metrics.InstallTracer(nil)
	ResetCaches()
	// One worker: the profile job runs first, then the tasks in spec order.
	opts := Options{Input: "small", Workloads: []string{name}, Workers: 1}
	specs := []SeriesSpec{
		{Label: "Struct-All", Cfg: red, Sel: selector.StructAll()},
		{Label: "Struct-Bounded", Cfg: red, Sel: selector.StructBounded()},
		{Label: "no mini-graphs", Cfg: red},
		{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
	}
	if _, err := RunSweep("outcomes", opts, specs); err != nil {
		t.Fatal(err)
	}
	runs := EnableMetrics().Counter("mg_sim_runs_total", "completed timing-simulator runs")
	before := runs.Value()
	if _, err := RunSweep("later", opts, []SeriesSpec{{Label: "no mini-graphs, later sweep", Cfg: red}}); err != nil {
		t.Fatal(err)
	}
	if n := runs.Value() - before; n != 0 {
		t.Errorf("later sweep simulated %d runs, want none: the earlier profile answers its singleton", n)
	}
	checkOutcomes(t, tr, l, name, map[string]string{"Struct-All": "miss", "Struct-Bounded": "hit",
		"no mini-graphs": "hit", "no mini-graphs, later sweep": "hit"})

	SetCachingDisabled(true)
	defer SetCachingDisabled(false)
	tr = metrics.NewTracer()
	metrics.InstallTracer(tr)
	if l, err = ledger.Open(t.TempDir(), "test"); err != nil {
		t.Fatal(err)
	}
	SetLedger(l)
	defer l.Close()
	if _, err := RunSweep("outcomes, uncached", opts, specs); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sp := range specs {
		want[sp.Label] = "miss"
	}
	checkOutcomes(t, tr, l, name, want)
	profiling := 0
	for _, s := range tr.Spans() {
		if s.Name == "cache.profiles" {
			profiling++
		}
	}
	if profiling != 1 {
		t.Errorf("uncached sweep made %d profile lookups, want Slack-Profile's own only: singletons run plain", profiling)
	}
}

// checkOutcomes checks the cache outcome of each series in want, on the
// task spans tr recorded and in the records of ledger l.
func checkOutcomes(t *testing.T, tr *metrics.Tracer, l *ledger.Ledger, name string, want map[string]string) {
	t.Helper()
	spanOutcome := map[string]string{}
	for _, s := range tr.Spans() {
		if s.Name != "task" {
			continue
		}
		var series, outcome string
		for _, a := range s.Attrs {
			switch a.Key {
			case "series":
				series = a.Value
			case "cache":
				outcome = a.Value
			}
		}
		spanOutcome[series] = outcome
	}
	recs, _, err := ledger.Read(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	recOutcome := map[string]string{}
	for _, r := range recs {
		recOutcome[r.Series] = r.Cache
	}
	for series, outcome := range want {
		if spanOutcome[series] != outcome {
			t.Errorf("%s on %s: task outcome %q, want %q", series, name, spanOutcome[series], outcome)
		}
		if recOutcome[series] != outcome {
			t.Errorf("%s on %s: ledger record outcome %q, want %q", series, name, recOutcome[series], outcome)
		}
	}
}

// TestNoCacheSimulatesEmptySelection checks that without caching every
// run is simulated, even one a slack profile's run could answer: an
// ablation variant whose profile-needing policy selects nothing (no
// mini-graph fits in one instruction) runs the singleton on the machine it
// profiled, the fully-provisioned one. Without caching each program then
// costs a baseline run, a profile and that run; the cached sweep's profile
// of the baseline machine answers both the baseline and the empty
// selection.
func TestNoCacheSimulatesEmptySelection(t *testing.T) {
	ResetCaches()
	opts := Options{Input: "small", Workloads: []string{"comm.crc32"}}
	specs := []SeriesSpec{{Label: "one-instruction mini-graphs", Cfg: pipeline.Baseline(),
		Sel: selector.SlackProfile(), Limits: minigraph.Limits{MaxLen: 1, MaxInputs: 3}}}
	runs := EnableMetrics().Counter("mg_sim_runs_total", "completed timing-simulator runs")
	ablate := func(want int64) *SweepResult {
		t.Helper()
		before := runs.Value()
		res, err := RunSweep("empty selection", opts, specs)
		if err != nil {
			t.Fatal(err)
		}
		if n := runs.Value() - before; n != want {
			t.Errorf("caching disabled %v: ablation simulated %d runs, want %d",
				resultCache.Disabled(), n, want)
		}
		return res
	}
	cached := ablate(1)
	SetCachingDisabled(true)
	defer SetCachingDisabled(false)
	assertSweepsEqual(t, cached, ablate(3))
}

// TestTaskKeyDefaults checks that a spec's zero Limits and Budget key like
// the paper's defaults spelled out, so the figures' series keep their
// ledger keys, while an ablation's other limits and budgets key apart.
func TestTaskKeyDefaults(t *testing.T) {
	b, err := PrepareSharedByName("comm.crc32", "small")
	if err != nil {
		t.Fatal(err)
	}
	sp := SeriesSpec{Cfg: pipeline.Reduced(), Sel: selector.SlackProfile()}
	explicit := sp
	explicit.Limits = minigraph.DefaultLimits()
	explicit.Budget = minigraph.DefaultSelectConfig().TemplateBudget
	if TaskKey(b, sp, nil) != TaskKey(b, explicit, nil) {
		t.Error("default limits and budget spelled out change the task key")
	}
	shorter, smaller := sp, sp
	shorter.Limits = minigraph.Limits{MaxLen: 2, MaxInputs: 3}
	smaller.Budget = 4
	for _, v := range []SeriesSpec{shorter, smaller} {
		if TaskKey(b, v, nil) == TaskKey(b, sp, nil) {
			t.Errorf("limits %+v, budget %d key like the defaults", v.Limits, v.Budget)
		}
	}
}

func assertSweepsEqual(t *testing.T, a, b *SweepResult) {
	t.Helper()
	assertReportsEqual(t, "perf", a.Perf, b.Perf)
	assertReportsEqual(t, "coverage", a.Coverage, b.Coverage)
}

func assertReportsEqual(t *testing.T, what string, a, b *stats.Report) {
	t.Helper()
	if len(a.Series) != len(b.Series) {
		t.Fatalf("%s: series count %d != %d", what, len(a.Series), len(b.Series))
	}
	for i, sa := range a.Series {
		sb := b.Series[i]
		if sa.Label != sb.Label {
			t.Fatalf("%s[%d]: label %q != %q", what, i, sa.Label, sb.Label)
		}
		if len(sa.Values) != len(sb.Values) {
			t.Fatalf("%s[%s]: %d values != %d", what, sa.Label, len(sa.Values), len(sb.Values))
		}
		for prog, va := range sa.Values {
			vb, ok := sb.Values[prog]
			if !ok {
				t.Fatalf("%s[%s]: missing %s", what, sa.Label, prog)
			}
			// Bit-identical, not approximately equal: the simulation is
			// deterministic and the cache must not perturb it.
			if math.Float64bits(va) != math.Float64bits(vb) {
				t.Errorf("%s[%s][%s]: %v != %v", what, sa.Label, prog, va, vb)
			}
		}
	}
}
