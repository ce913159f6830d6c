package core

import (
	"runtime"
	"testing"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/simcache"
)

// TestAblationIsASweep checks that a design-choice ablation runs through
// the sweep loop and so has what every sweep has: with two workers, one
// run-ledger record per (workload, variant) carrying its CPU time (where
// the platform has a CPU clock) and an honest cache outcome, and a valid
// Chrome trace. Under a sampling spec the records are marked as estimates.
func TestAblationIsASweep(t *testing.T) {
	names := []string{"comm.crc32", "comm.gen01"}
	budgets := []int{4, 16, 64, 512} // AblationBudget's variants
	for _, sample := range []*pipeline.SampleSpec{
		nil,
		{Interval: 1000, Window: 1000, Mode: pipeline.SampleRepresentative},
	} {
		ResetCaches()
		l, err := ledger.Open(t.TempDir(), "test")
		if err != nil {
			t.Fatal(err)
		}
		SetLedger(l)
		tr := metrics.NewTracer()
		metrics.InstallTracer(tr)
		res, err := AblationBudget(Options{Input: "small", Workloads: names, Workers: 2, Sample: sample})
		metrics.InstallTracer(nil)
		SetLedger(nil)
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := ledger.Read(l.Path())
		if err != nil {
			t.Fatal(err)
		}

		mode := "exact"
		if sample != nil {
			mode = sample.Summary()
		}
		if len(recs) != len(names)*len(budgets) {
			t.Errorf("%s: %d ledger records, want one per (workload, variant): %d", mode, len(recs), len(names)*len(budgets))
		}
		seen := map[string]bool{}
		misses := 0
		for _, r := range recs {
			seen[r.Workload+"|"+r.Series] = true
			if r.Sweep != res.Perf.Title || r.Cycles == 0 || (runtime.GOOS == "linux" && r.CPUMS <= 0) {
				t.Errorf("%s: record %s/%s: sweep %q, cycles %d, cpu_ms %v", mode, r.Workload, r.Series, r.Sweep, r.Cycles, r.CPUMS)
			}
			if r.Estimate != (sample != nil) {
				t.Errorf("%s: record %s/%s estimate=%v", mode, r.Workload, r.Series, r.Estimate)
			}
			switch r.Cache {
			case simcache.Miss:
				misses++
			case simcache.Hit, simcache.Shared:
			default:
				t.Errorf("%s: record %s/%s cache outcome %q", mode, r.Workload, r.Series, r.Cache)
			}
		}
		for _, s := range res.Perf.Series {
			for _, w := range names {
				if !seen[w+"|"+s.Label] {
					t.Errorf("%s: no ledger record for (%s, %s)", mode, w, s.Label)
				}
			}
		}
		// A task reports "miss" only when it simulated: once per distinct
		// run, and never for a singleton an exact sweep's profile answers.
		if want := distinctBudgetRuns(t, names, budgets, sample == nil); misses != want {
			t.Errorf("%s: %d tasks report a miss, want one per distinct run: %d", mode, misses, want)
		}
		if err := validChromeTrace(tr.Spans()); err != nil {
			t.Errorf("%s: ablation trace invalid: %v", mode, err)
		}
	}
}

// distinctBudgetRuns counts the distinct timing runs of AblationBudget's
// variants on the reduced machine over the named programs, selecting
// independently of the sweep. With profiled set, an empty selection is the
// run the reduced machine's slack profile makes, so it does not count.
func distinctBudgetRuns(t *testing.T, names []string, budgets []int, profiled bool) int {
	t.Helper()
	red, sel := pipeline.Reduced(), selector.SlackProfile()
	n := 0
	for _, name := range names {
		b, err := PrepareSharedByName(name, "small")
		if err != nil {
			t.Fatal(err)
		}
		prof, err := b.Profile(red)
		if err != nil {
			t.Fatal(err)
		}
		pool := sel.Pool(b.Prog, b.Cands, prof)
		distinct := map[string]bool{}
		for _, budget := range budgets {
			chosen := minigraph.Select(b.Prog, pool, b.Freq, minigraph.SelectConfig{TemplateBudget: budget})
			distinct[runContent(red, mgConfigFor(sel, chosen))] = true
		}
		if profiled {
			delete(distinct, runContent(red, pipeline.MGConfig{}))
		}
		n += len(distinct)
	}
	return n
}
