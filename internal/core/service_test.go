package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/selector"
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
