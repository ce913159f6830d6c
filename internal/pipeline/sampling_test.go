package pipeline

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/workload"
)

// repSpec is the representative spec the sweeps and the benchmark use.
var repSpec = SampleSpec{Mode: SampleRepresentative, Interval: 1000, Window: 1000}

func TestSampledMatchesFullRun(t *testing.T) {
	// On large inputs, representative sampling must estimate the full run's
	// cycle count within a modest error while simulating a fraction of it.
	// The tight bound on small inputs is TestSamplingAccuracyGate's.
	for _, name := range []string{"comm.crc32", "media.fir", "intx.lcgbranch"} {
		w := workload.Find(name)
		p, _, _, err := w.Build("large")
		if err != nil {
			t.Fatal(err)
		}
		res, err := emu.Run(p, emu.Options{CollectTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Reduced()
		full, err := Run(p, res.Trace, cfg, MGConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		est, report, err := RunSampledReport(context.Background(), p, res.Trace, cfg, MGConfig{}, repSpec)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(est.Cycles) / float64(full.Cycles)
		t.Logf("%s: %d records, sampled/full cycles %.4f, %.1f%% detailed", name, len(res.Trace), ratio, 100*report.SimulatedFrac)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: sampled estimate %.1f%% of full cycles (%d vs %d)",
				name, 100*ratio, est.Cycles, full.Cycles)
		}
		if report.SimulatedFrac >= 0.5 {
			t.Errorf("%s: sampling simulated %.0f%% of the trace in detail", name, 100*report.SimulatedFrac)
		}
		if est.Instrs != full.Instrs {
			t.Errorf("%s: instruction accounting %d vs %d", name, est.Instrs, full.Instrs)
		}
	}
}

func TestSampledUopExtrapolation(t *testing.T) {
	// Under a mini-graph configuration the uop count is genuinely smaller
	// than the instruction count (handles amortize their constituents), so
	// the sampled estimate must extrapolate uops from the measured windows
	// — not approximate them with est.Instrs, which would erase the very
	// bandwidth amplification the experiments report.
	w := workload.Find("comm.crc32")
	p, _, _, err := w.Build("large")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	freq := make([]int64, p.NumInstrs())
	for _, r := range res.Trace {
		freq[r.Index]++
	}
	sel := minigraph.Select(p, minigraph.Enumerate(p, minigraph.DefaultLimits()),
		freq, minigraph.DefaultSelectConfig())
	cfg, mg := Reduced(), MGConfig{Selection: sel}

	full, err := Run(p, res.Trace, cfg, mg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Uops >= full.Instrs {
		t.Fatalf("test premise broken: full run has %d uops for %d instrs", full.Uops, full.Instrs)
	}
	est, _, err := RunSampledReport(context.Background(), p, res.Trace, cfg, mg, repSpec)
	if err != nil {
		t.Fatal(err)
	}
	if est.Uops == est.Instrs {
		t.Error("sampled uops equal sampled instrs: extrapolation not applied")
	}
	ratio := float64(est.Uops) / float64(full.Uops)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("sampled uop estimate %.1f%% of full uops (%d vs %d)",
			100*ratio, est.Uops, full.Uops)
	}
}

func TestSampledShortProgramFallsBack(t *testing.T) {
	// A trace runs in full detail exactly when it fits one interval:
	// comm.ipchk's small trace (2,061 records) runs in full at an interval
	// of its own length and is sampled at the default 1000.
	w := workload.Find("comm.ipchk")
	p, _, _, _ := w.Build("small")
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Trace)
	for _, tc := range []struct {
		interval int
		full     bool
	}{{1 << 20, true}, {n, true}, {n - 1, false}, {1000, false}} {
		spec := repSpec
		spec.Interval = tc.interval
		est, report, err := RunSampledReport(context.Background(), p, res.Trace, Reduced(), MGConfig{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if report.Full != tc.full || spec.NeedsPlan(n) == tc.full {
			t.Errorf("interval %d, %d-record trace: Full = %v, NeedsPlan = %v; want full = %v",
				tc.interval, n, report.Full, spec.NeedsPlan(n), tc.full)
		}
		if tc.full && report.SimulatedFrac != 1 {
			t.Errorf("interval %d: short program should simulate fully, frac = %.2f", tc.interval, report.SimulatedFrac)
		}
		if !tc.full && report.Windows < 1 {
			t.Errorf("interval %d: sampled run simulated no window", tc.interval)
		}
		if est.Instrs != int64(n) {
			t.Errorf("interval %d: estimate lost instructions (%d of %d)", tc.interval, est.Instrs, n)
		}
	}
}

func TestSampleSpecValidation(t *testing.T) {
	w := workload.Find("comm.ipchk")
	p, _, _, _ := w.Build("small")
	res, _ := emu.Run(p, emu.Options{CollectTrace: true})
	rep := SampleRepresentative
	bad := []SampleSpec{
		{Interval: 0, Window: 10, Mode: rep},
		{Interval: 100, Window: 0, Mode: rep},
		{Interval: 100, Window: 200, Mode: rep},
		{Interval: 100, Window: 10, Mode: rep, Clusters: -1},
		{Interval: 100, Window: 10}, // the zero Mode names no method
	}
	for _, spec := range bad {
		if _, _, err := RunSampledReport(context.Background(), p, res.Trace, Reduced(), MGConfig{}, spec); err == nil {
			t.Errorf("spec %+v should be rejected", spec)
		}
	}
	if m, err := ParseSampleMode("rep"); err != nil || m != rep {
		t.Errorf(`ParseSampleMode("rep") = %v, %v`, m, err)
	}
	for _, s := range []string{"uniform", ""} {
		if _, err := ParseSampleMode(s); err == nil {
			t.Errorf("ParseSampleMode(%q) accepted", s)
		}
	}
}
