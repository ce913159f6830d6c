package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// TestLimitStudyIsASweep checks that the Figure 8 limit study runs through
// the sweep loop and so has what every sweep has: with two workers, one
// run-ledger record per subset, marked as an estimate exactly when sampled,
// and a valid Chrome trace with one task span per subset. Sampling together
// with an observer is rejected as in every sweep. The exact points equal
// the direct runs of each subset's selection (directLimitPoints).
func TestLimitStudyIsASweep(t *testing.T) {
	const name = "comm.crc32" // 4 disjoint candidates, 16 subsets
	rep := &pipeline.SampleSpec{Interval: 1000, Window: 1000, Mode: pipeline.SampleRepresentative}
	for _, sample := range []*pipeline.SampleSpec{nil, rep} {
		ResetCaches()
		l, err := ledger.Open(t.TempDir(), "test")
		if err != nil {
			t.Fatal(err)
		}
		SetLedger(l)
		tr := metrics.NewTracer()
		metrics.InstallTracer(tr)
		lr, err := LimitStudy(name, Options{Input: "small", Workers: 2, Sample: sample})
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
		if len(lr.Points) != 16 {
			t.Fatalf("%s: %d points, want 16", mode, len(lr.Points))
		}
		seen := map[string]bool{}
		for _, r := range recs {
			seen[r.Series] = true
			if r.Workload != name || r.Cycles == 0 || (runtime.GOOS == "linux" && r.CPUMS <= 0) {
				t.Errorf("%s: record %s/%s: cycles %d, cpu_ms %v", mode, r.Workload, r.Series, r.Cycles, r.CPUMS)
			}
			if r.Estimate != (sample != nil) {
				t.Errorf("%s: record %s estimate=%v", mode, r.Series, r.Estimate)
			}
		}
		if len(recs) != len(lr.Points) || len(seen) != len(lr.Points) {
			t.Errorf("%s: %d ledger records over %d subsets, want one per subset: %d", mode, len(recs), len(seen), len(lr.Points))
		}
		tasks := 0
		for _, s := range tr.Spans() {
			if s.Name == "task" {
				tasks++
			}
		}
		if tasks != len(lr.Points) {
			t.Errorf("%s: %d task spans, want one per subset: %d", mode, tasks, len(lr.Points))
		}
		if err := validChromeTrace(tr.Spans()); err != nil {
			t.Errorf("%s: limit study trace invalid: %v", mode, err)
		}
		if sample != nil {
			continue
		}
		want := directLimitPoints(t, name)
		for mask, pt := range lr.Points {
			if pt != want[mask] {
				t.Errorf("subset %04b: sweep %+v, direct run %+v", mask, pt, want[mask])
			}
		}
	}

	_, err := LimitStudy(name, Options{Input: "small", Sample: rep,
		Obs: &obs.Options{Dir: t.TempDir(), Pipetrace: true}})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("sampled and observed limit study: err = %v, want the sweep's mutual-exclusion error", err)
	}
}

// directLimitPoints evaluates every subset of a program's limit-study pool
// without the sweep or its caches: each subset's selection runs on the
// reduced machine and is measured against the fully-provisioned singleton.
func directLimitPoints(t *testing.T, name string) []LimitPoint {
	t.Helper()
	b := prep(t, name)
	base, err := b.RunSingleton(pipeline.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	top := topDisjoint(b, 10)
	pts := make([]LimitPoint, 1<<len(top))
	for mask := range pts {
		var subset []*minigraph.Candidate
		for i, c := range top {
			if mask&(1<<i) != 0 {
				subset = append(subset, c)
			}
		}
		st, err := b.Run(pipeline.Reduced(), nil, minigraph.Select(b.Prog, subset, b.Freq, minigraph.DefaultSelectConfig()))
		if err != nil {
			t.Fatal(err)
		}
		pts[mask] = LimitPoint{
			Mask:     uint32(mask),
			Coverage: st.Coverage(),
			RelPerf:  float64(base.Cycles) / float64(st.Cycles),
		}
	}
	return pts
}
