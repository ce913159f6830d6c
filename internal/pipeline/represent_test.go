package pipeline

import (
	"context"
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/prog"
	"repro/internal/workload"
)

// streamTrace builds name's small input and returns the program with its
// whole committed trace.
func streamTrace(t *testing.T, name string) (*prog.Program, []emu.Rec) {
	t.Helper()
	w := workload.Find(name)
	prg, _, _, err := w.Build("small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(prg, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	return prg, res.Trace
}

// warmWindowFromScratch is the per-window oracle for runRepWindows: a fresh
// machine functionally warmed with the window's whole prefix tr[:preStart],
// then the window simulated in detail past its pre-roll.
func warmWindowFromScratch(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, w repWindow) windowResult {
	m, maxCycles, err := setupMachine(p, tr[w.preStart:w.end], cfg, mg, nil, nil, defaultSched, false)
	if err != nil {
		return windowResult{err: err}
	}
	ws := newWarmReplay(&m.predictors, p, m.layout)
	for _, rec := range tr[:w.preStart] {
		ws.add(rec)
	}
	m.predictors.clearStats()
	var snap prerollSnap
	st, err := m.mainLoop(maxCycles, int64(w.start-w.preStart), &snap)
	if err != nil {
		return windowResult{err: err}
	}
	return repDeltas(st, &snap)
}

func TestRepWindowsMatchFromScratchWarm(t *testing.T) {
	// One warm pass handing its state to every window must measure each
	// window exactly as warming that window's whole prefix from scratch
	// does, serially and with workers, with and without mini-graphs (the
	// layout moves instruction addresses, so it changes the I-cache warm-up).
	spec := SampleSpec{Interval: 1000, Window: 1000, Mode: SampleRepresentative}
	for _, name := range []string{"media.gen02", "intx.bsearch", "comm.crc32"} {
		p, tr := streamTrace(t, name)
		freq := make([]int64, p.NumInstrs())
		for _, r := range tr {
			freq[r.Index]++
		}
		sel := minigraph.Select(p, minigraph.Enumerate(p, minigraph.DefaultLimits()), freq, minigraph.DefaultSelectConfig())
		for _, cfg := range []Config{Reduced(), Baseline(), Width8()} {
			ps := getPredictors(cfg)
			feats, lens := intervalFeatures(p, tr, cfg, ps, spec.Interval)
			plan := planRepWindows(feats, lens, len(tr), RepPlanKeyOf(cfg, spec))
			for _, mg := range []MGConfig{{}, {Selection: sel}} {
				want := make([]windowResult, len(plan.jobs))
				for i, w := range plan.jobs {
					want[i] = warmWindowFromScratch(p, tr, cfg, mg, w)
				}
				for _, workers := range []int{0, 3} {
					ps.reset()
					got := runRepWindows(context.Background(), p, tr, cfg, mg, plan.jobs, ps, workers)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s/%s mg=%v workers=%d: window %d (preStart %d): got %+v, from-scratch warm-up %+v",
								name, cfg.Name, mg.Enabled(), workers, i, plan.jobs[i].preStart, got[i], want[i])
						}
					}
				}
			}
			putPredictors(cfg, ps)
		}
	}
}

func TestRepresentativeWorkersDeterministic(t *testing.T) {
	// Clustering, window selection, and the mass-weighted combination must be
	// identical whatever the worker count: the parallel pool only changes who
	// simulates a window, never which windows are simulated or how their
	// results compose.
	w := workload.Find("media.gen02")
	p, _, _, err := w.Build("small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	base := SampleSpec{Interval: 1000, Window: 1000, Mode: SampleRepresentative}
	serial, serialReport, err := RunSampledReport(context.Background(), p, res.Trace, Baseline(), MGConfig{}, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		spec := base
		spec.Workers = workers
		par, parReport, err := RunSampledReport(context.Background(), p, res.Trace, Baseline(), MGConfig{}, spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *par != *serial {
			t.Errorf("workers=%d: stats diverge from serial:\nserial %+v\npar    %+v",
				workers, serial, par)
		}
		parReport.Mode = serialReport.Mode // Mode is spec-copied; compare the rest
		if parReport != serialReport {
			t.Errorf("workers=%d: report diverges:\nserial %+v\npar    %+v",
				workers, serialReport, parReport)
		}
	}
}

func TestRepresentativeVsUniformVsFull(t *testing.T) {
	// Representative mode must estimate the full run closely while
	// simulating a fraction of it in detail (the uniform mode the name
	// mentions no longer exists). The tight accuracy bound lives in
	// TestSamplingAccuracyGate; this checks one workload on the
	// fully-provisioned machine.
	p, _, _, err := workload.Find("embed.bitcount").Build("small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	cfg := Baseline()
	full, err := Run(p, tr, cfg, MGConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	rep, repReport, err := RunSampledReport(context.Background(), p, tr, cfg, MGConfig{},
		SampleSpec{Interval: 1000, Window: 1000, Mode: SampleRepresentative})
	if err != nil {
		t.Fatal(err)
	}
	repErr := math.Abs(rep.IPC()/full.IPC() - 1)
	t.Logf("full IPC %.4f  rep %.4f (err %.2f%%, detail %d of %d)",
		full.IPC(), rep.IPC(), 100*repErr, repReport.DetailInstrs, len(tr))
	if repErr > 0.03 {
		t.Errorf("representative IPC error %.2f%% (want <= 3%%)", 100*repErr)
	}
	if repReport.DetailInstrs >= int64(len(tr)) {
		t.Errorf("representative mode simulated %d detailed instrs of a %d-record trace: no budget win",
			repReport.DetailInstrs, len(tr))
	}
	if rep.Instrs != full.Instrs {
		t.Errorf("instruction accounting: full %d rep %d", full.Instrs, rep.Instrs)
	}
}

func TestRepresentativeShortTraceFallsBack(t *testing.T) {
	// A trace shorter than one interval runs fully in detail, and says so in
	// the report.
	p, _, _, err := workload.Find("comm.ipchk").Build("small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := SampleSpec{Interval: 1 << 20, Window: 1000, Mode: SampleRepresentative}
	est, report, err := RunSampledReport(context.Background(), p, res.Trace, Baseline(), MGConfig{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Full {
		t.Error("short trace should report Full")
	}
	if est.Instrs != int64(len(res.Trace)) {
		t.Error("fallback lost instructions")
	}
}

func TestRepDeltasWindowInsidePreroll(t *testing.T) {
	// A 3-record window behind a 250-record pre-roll can commit completely
	// in the cycle that crosses the pre-roll. Nothing is left past the
	// snapshot, so the window is measured including its pre-roll.
	st := &Stats{Cycles: 90, Instrs: 253, Uops: 240, Handles: 9, Replays: 2}
	snap := &prerollSnap{cycles: 89, instrs: 253, uops: 240, handles: 9, replay: 2}
	got := repDeltas(st, snap)
	want := windowResult{cycles: 90, instrs: 253, uops: 240, simulated: 253, handles: 9, replay: 2}
	if got != want {
		t.Errorf("window inside its pre-roll: got %+v, want %+v", got, want)
	}
	// A window that does reach past its pre-roll still subtracts it.
	snap = &prerollSnap{cycles: 60, instrs: 250, uops: 238, handles: 8, replay: 1}
	got = repDeltas(st, snap)
	want = windowResult{cycles: 30, instrs: 3, uops: 2, simulated: 253, handles: 1, replay: 1}
	if got != want {
		t.Errorf("window past its pre-roll: got %+v, want %+v", got, want)
	}
}
