package pipeline

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/workload"
)

func TestSampledMatchesFullRun(t *testing.T) {
	// On steady-state workloads, 20% periodic sampling with warm-up must
	// estimate the full run's cycle count within a modest error.
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
		spec := SampleSpec{Interval: 10_000, Window: 2_000, Warmup: 1_000}
		est, report, err := RunSampledReport(context.Background(), p, res.Trace, cfg, MGConfig{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(est.Cycles) / float64(full.Cycles)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: sampled estimate %.0f%% of full cycles (%d vs %d)",
				name, 100*ratio, est.Cycles, full.Cycles)
		}
		if report.SimulatedFrac >= 1.0 {
			t.Errorf("%s: sampling simulated everything (%.2f)", name, report.SimulatedFrac)
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
	spec := SampleSpec{Interval: 10_000, Window: 2_000, Warmup: 1_000}
	est, _, err := RunSampledReport(context.Background(), p, res.Trace, cfg, mg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if est.Uops == est.Instrs {
		t.Error("sampled uops equal sampled instrs: extrapolation not applied")
	}
	ratio := float64(est.Uops) / float64(full.Uops)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("sampled uop estimate %.0f%% of full uops (%d vs %d)",
			100*ratio, est.Uops, full.Uops)
	}
}

func TestSampledWorkersDeterministic(t *testing.T) {
	// The parallel window pool must be invisible in the results: any worker
	// count yields the same estimate as the serial path.
	w := workload.Find("media.fir")
	p, _, _, err := w.Build("large")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	base := SampleSpec{Interval: 10_000, Window: 2_000, Warmup: 1_000}
	serial, serialReport, err := RunSampledReport(context.Background(), p, res.Trace, Reduced(), MGConfig{}, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		spec := base
		spec.Workers = workers
		par, parReport, err := RunSampledReport(context.Background(), p, res.Trace, Reduced(), MGConfig{}, spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *par != *serial {
			t.Errorf("workers=%d: stats diverge from serial:\nserial %+v\npar    %+v",
				workers, serial, par)
		}
		if parReport.SimulatedFrac != serialReport.SimulatedFrac {
			t.Errorf("workers=%d: simulated fraction %v != %v", workers, parReport.SimulatedFrac, serialReport.SimulatedFrac)
		}
	}
}

func TestSampledShortProgramFallsBack(t *testing.T) {
	w := workload.Find("comm.ipchk")
	p, _, _, _ := w.Build("small")
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := SampleSpec{Interval: 1 << 20, Window: 1000, Warmup: 100}
	est, report, err := RunSampledReport(context.Background(), p, res.Trace, Reduced(), MGConfig{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.SimulatedFrac != 1 {
		t.Errorf("short program should simulate fully, frac = %.2f", report.SimulatedFrac)
	}
	if est.Instrs != int64(len(res.Trace)) {
		t.Error("fallback lost instructions")
	}
}

func TestSampleSpecValidation(t *testing.T) {
	w := workload.Find("comm.ipchk")
	p, _, _, _ := w.Build("small")
	res, _ := emu.Run(p, emu.Options{CollectTrace: true})
	bad := []SampleSpec{
		{Interval: 0, Window: 10, Warmup: 0},
		{Interval: 100, Window: 0, Warmup: 0},
		{Interval: 100, Window: 200, Warmup: 0},
		{Interval: 100, Window: 10, Warmup: -1},
	}
	for _, spec := range bad {
		if _, _, err := RunSampledReport(context.Background(), p, res.Trace, Reduced(), MGConfig{}, spec); err == nil {
			t.Errorf("spec %+v should be rejected", spec)
		}
	}
	if r := (SampleSpec{Interval: 50, Window: 1}).Rate(); r != 0.02 {
		t.Errorf("Rate = %v, want 0.02", r)
	}
}
