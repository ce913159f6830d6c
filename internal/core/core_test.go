package core

import (
	"context"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/selector"
)

func prep(t *testing.T, name string) *Bench {
	t.Helper()
	b, err := PrepareByName(name, "small")
	if err != nil {
		t.Fatalf("Prepare(%s): %v", name, err)
	}
	return b
}

func TestPrepareVerifiesChecksum(t *testing.T) {
	b := prep(t, "comm.crc32")
	if b.Prog == nil || len(b.Trace) == 0 || len(b.Cands) == 0 {
		t.Error("bench incomplete")
	}
	// Frequencies must sum to the trace length.
	var sum int64
	for _, f := range b.Freq {
		sum += f
	}
	if sum != int64(len(b.Trace)) {
		t.Errorf("freq sum %d != trace %d", sum, len(b.Trace))
	}
}

func TestPrepareUnknown(t *testing.T) {
	if _, err := PrepareByName("nope", "small"); err == nil {
		t.Error("unknown workload should error")
	}
	if _, err := PrepareByName("comm.crc32", "nope"); err == nil {
		t.Error("unknown input should error")
	}
}

func TestProfileCached(t *testing.T) {
	b := prep(t, "embed.bitcount")
	p1, err := b.Profile(pipeline.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Profile(pipeline.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("profile should be cached per config")
	}
	p3, err := b.Profile(pipeline.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different configs must profile separately")
	}
}

func TestSelectorsProduceNestedPools(t *testing.T) {
	b := prep(t, "media.adpcm_enc")
	prof, err := b.Profile(pipeline.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	selAll := b.Select(selector.StructAll(), nil)
	selNone := b.Select(selector.StructNone(), nil)
	selBounded := b.Select(selector.StructBounded(), nil)
	selSP := b.Select(selector.SlackProfile(), prof)
	if !(selNone.Coverage() <= selBounded.Coverage()+1e-9 && selBounded.Coverage() <= selAll.Coverage()+1e-9) {
		t.Errorf("coverage ordering broken: none=%.3f bounded=%.3f all=%.3f",
			selNone.Coverage(), selBounded.Coverage(), selAll.Coverage())
	}
	if selSP.Coverage() > selAll.Coverage()+1e-9 {
		t.Errorf("Slack-Profile coverage %.3f exceeds Struct-All %.3f", selSP.Coverage(), selAll.Coverage())
	}
}

func TestEvaluateRuns(t *testing.T) {
	b := prep(t, "comm.ipchk")
	pt, err := EvalPoint(context.Background(), b, SeriesSpec{Cfg: pipeline.Reduced(), Sel: selector.SlackProfile()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Stats.Instrs != int64(len(b.Trace)) {
		t.Errorf("instrs %d != trace %d", pt.Stats.Instrs, len(b.Trace))
	}
	if pt.Selection == nil {
		t.Error("no selection returned")
	}
}

func TestRunSweepSmall(t *testing.T) {
	opts := Options{Input: "small", Suites: []string{"comm"}, Workers: 2}
	red := pipeline.Reduced()
	res, err := RunSweep("test", opts, []SeriesSpec{
		{Label: "no-mg", Cfg: red},
		{Label: "sp", Cfg: red, Sel: selector.SlackProfile()},
	})
	if err != nil {
		t.Fatal(err)
	}
	nomg := res.Perf.Get("no-mg")
	sp := res.Perf.Get("sp")
	if len(nomg.Values) != 19 || len(sp.Values) != 19 {
		t.Fatalf("series sizes %d/%d, want 19 (comm suite)", len(nomg.Values), len(sp.Values))
	}
	if sp.Mean() <= nomg.Mean() {
		t.Errorf("Slack-Profile (%.3f) should beat no-MG (%.3f) on the reduced machine",
			sp.Mean(), nomg.Mean())
	}
	cov := res.Coverage.Get("sp")
	if cov.Mean() <= 0 {
		t.Error("Slack-Profile coverage should be positive")
	}
}

// TestSweepWorkloadNames checks the Workloads filter: a name that matches no
// workload fails the sweep before any task runs, while a known name outside
// a figure's suites only filters it out.
func TestSweepWorkloadNames(t *testing.T) {
	ResetCaches()
	_, err := Fig1(Options{Input: "small", Workloads: []string{"comm.crc32", "nonexist.prog"}})
	if want := `unknown workload "nonexist.prog"`; err == nil || err.Error() != want {
		t.Errorf("unknown name: err = %v, want %s", err, want)
	}
	if c := Caches(); c.Benches.Misses != 0 || c.Results.Misses != 0 {
		t.Errorf("rejected sweep prepared %d programs and simulated %d runs", c.Benches.Misses, c.Results.Misses)
	}
	// Fig 9 bottom runs the intx and embed suites only.
	res, err := Fig9Bottom(Options{Input: "small", Workloads: []string{"comm.crc32"}})
	if err != nil {
		t.Fatalf("known name outside the suites: %v", err)
	}
	for _, s := range res.Perf.Series {
		if len(s.Values) != 0 {
			t.Errorf("series %s has %d points, want none", s.Label, len(s.Values))
		}
	}
}

func TestCrossInputSweep(t *testing.T) {
	opts := Options{Input: "large", Suites: []string{"embed"}, Workers: 2}
	red := pipeline.Reduced()
	res, err := RunSweep("cross", opts, []SeriesSpec{
		{Label: "self", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "cross", Cfg: red, Sel: selector.SlackProfile(), ProfInput: "small"},
	})
	if err != nil {
		t.Fatal(err)
	}
	self, cross := res.Perf.Get("self"), res.Perf.Get("cross")
	// Robustness: cross-trained within 10% of self-trained on average.
	if d := cross.Mean() / self.Mean(); d < 0.9 || d > 1.1 {
		t.Errorf("cross/self = %.3f, profiles not robust", d)
	}
}

func TestLimitStudySmallPool(t *testing.T) {
	lr, err := LimitStudy("media.adpcm_enc", Options{Input: "small", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Candidates) != 10 {
		t.Fatalf("top pool = %d, want 10", len(lr.Candidates))
	}
	if len(lr.Points) != 1024 {
		t.Fatalf("points = %d, want 1024", len(lr.Points))
	}
	// Empty mask has zero coverage; full mask the maximum coverage.
	if lr.Points[0].Coverage != 0 {
		t.Error("empty set should have zero coverage")
	}
	full := lr.Points[1023]
	for _, pt := range lr.Points {
		if pt.Coverage > full.Coverage+1e-9 {
			t.Error("no subset can exceed the full set's coverage")
		}
	}
	// Best is at least as good as every highlighted choice.
	for name, mask := range lr.Choices {
		if lr.Points[mask].RelPerf > lr.Best.RelPerf+1e-9 {
			t.Errorf("%s outperforms Best", name)
		}
	}
	// Struct-All must be the full mask.
	if lr.Choices["Struct-All"] != 1023 {
		t.Errorf("Struct-All mask = %b, want all ones", lr.Choices["Struct-All"])
	}
}

func TestTopDisjoint(t *testing.T) {
	b := prep(t, "comm.mix")
	top := topDisjoint(b, 10)
	if len(top) == 0 {
		t.Fatal("no disjoint candidates")
	}
	for i := range top {
		for j := i + 1; j < len(top); j++ {
			if top[i].Overlaps(top[j]) {
				t.Errorf("candidates %d and %d overlap", i, j)
			}
		}
		if b.Freq[top[i].Start] == 0 {
			t.Error("never-executed candidate in top pool")
		}
	}
}
