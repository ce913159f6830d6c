package pipeline

import (
	"context"
	"strconv"
	"sync"

	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// Streaming sampled simulation: RunSampledProg produces the same estimates as
// emulate-then-RunSampledReport without ever materializing the whole dynamic
// trace. Uniform mode drives the emulator once with collection off, takes an
// architectural checkpoint at each window's warm-up start, and re-materializes
// only the window subtraces by resuming from those checkpoints. Representative
// mode streams the trace through the interval-feature accumulator in
// interval-sized chunks, then re-executes each selected window's prefix,
// feeding the warm-up records straight into the machine's predictive
// structures as they are produced and keeping only the detailed window slice.
// Peak memory is O(interval + window [+ checkpoints]) instead of O(trace).

// RunSampledProg is RunSampledReport driven straight off the emulator: same
// spec, same estimates (bit-identical for both modes), no full-trace buffer.
func RunSampledProg(p *prog.Program, cfg Config, mg MGConfig, spec SampleSpec) (*Stats, SampleReport, error) {
	if err := spec.validate(); err != nil {
		return nil, SampleReport{}, err
	}
	if spec.Mode == SampleRepresentative {
		return runStreamRep(p, cfg, mg, spec)
	}
	return runStreamUniform(p, cfg, mg, spec)
}

// runStreamFull is the short-trace fallback: the whole program, which just
// proved to be at most interval+warmup long, runs in detail.
func runStreamFull(p *prog.Program, cfg Config, mg MGConfig, spec SampleSpec) (*Stats, SampleReport, error) {
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		return nil, SampleReport{}, err
	}
	st, err := Run(p, res.Trace, cfg, mg, nil)
	return st, SampleReport{
		Mode:          spec.Mode,
		Full:          true,
		Windows:       1,
		DetailInstrs:  int64(len(res.Trace)),
		SimulatedFrac: 1,
	}, err
}

// --- uniform mode ---

// runStreamUniform replays the program once with collection off, snapshotting
// architectural state at every window's warm-up start, then resumes each
// checkpoint with collection on to rebuild exactly the subtrace runWindow
// would have sliced.
func runStreamUniform(p *prog.Program, cfg Config, mg MGConfig, spec SampleSpec) (*Stats, SampleReport, error) {
	s := emu.NewState(p, emu.Options{})
	var cks []*emu.Checkpoint // cks[k-1] sits at window k's warm-up start
	for k := 1; ; k++ {
		pos := int64(k*spec.Interval - spec.Warmup)
		if pos < 0 {
			pos = 0
		}
		if err := s.RunTo(pos); err != nil {
			return nil, SampleReport{}, err
		}
		if s.DynInstrs() < pos {
			break // halted before this window's warm-up start
		}
		cks = append(cks, s.Checkpoint())
		if s.Halted() {
			break
		}
	}
	if err := s.RunToEnd(); err != nil {
		return nil, SampleReport{}, err
	}
	n := int(s.DynInstrs())
	if n <= spec.Interval+spec.Warmup {
		return runStreamFull(p, cfg, mg, spec)
	}

	// Valid windows are the prefix of checkpoints whose window fits the run.
	jobs := cks
	for len(jobs) > 0 && len(jobs)*spec.Interval+spec.Window > n {
		jobs = jobs[:len(jobs)-1]
	}

	ctx, runSpan := metrics.StartSpan(context.Background(), "sampled.stream",
		metrics.L("prog", p.Name), metrics.L("windows", strconv.Itoa(len(jobs))))
	results := make([]windowResult, len(jobs))
	runJob := func(ctx context.Context, i int) windowResult {
		start := (i + 1) * spec.Interval
		_, sp := metrics.StartSpan(ctx, "sample.window",
			metrics.L("index", strconv.Itoa(i)), metrics.L("start", strconv.Itoa(start)))
		r := resumeWindow(p, cfg, mg, spec, jobs[i], start)
		sp.End()
		noteSampleWindow()
		return r
	}
	streamPool(ctx, spec.Workers, len(jobs), results, runJob)
	runSpan.End()

	return aggregateUniform(results, n, spec)
}

// resumeWindow re-materializes one uniform window's subtrace from its warm-up
// checkpoint and measures it exactly as runWindow does on a trace slice.
func resumeWindow(p *prog.Program, cfg Config, mg MGConfig, spec SampleSpec, ck *emu.Checkpoint, start int) windowResult {
	warmStart := start - spec.Warmup
	if warmStart < 0 {
		warmStart = 0
	}
	end := start + spec.Window
	s := emu.Resume(p, ck, emu.Options{CollectTrace: true})
	if err := s.RunTo(int64(end)); err != nil {
		return windowResult{err: err}
	}
	return measureWindow(p, s.TakeTrace(), cfg, mg, int64(start-warmStart))
}

// --- representative mode ---

// runStreamRep streams the emulated trace through the feature accumulator in
// interval-sized chunks, plans the representative windows, and re-executes
// each selected window's prefix feeding warm-up records straight into the
// machine — only the detailed window slice is ever held.
func runStreamRep(p *prog.Program, cfg Config, mg MGConfig, spec SampleSpec) (*Stats, SampleReport, error) {
	s := emu.NewState(p, emu.Options{CollectTrace: true})
	ps := getPredictors(cfg)
	defer putPredictors(cfg, ps)
	a := newFeatAccum(p, cfg, ps, spec.Interval)
	chunk := int64(spec.Interval)
	for !s.Halted() {
		if err := s.RunTo(s.DynInstrs() + chunk); err != nil {
			return nil, SampleReport{}, err
		}
		for _, rec := range s.TakeTrace() {
			a.add(rec)
		}
	}
	n := int(s.DynInstrs())
	if n <= spec.Interval+spec.Warmup {
		return runStreamFull(p, cfg, mg, spec)
	}
	feats, lens := a.finish()
	plan := planRepWindows(feats, lens, n, RepPlanKeyOf(cfg, spec))

	ctx, runSpan := metrics.StartSpan(context.Background(), "sampled.stream.rep",
		metrics.L("prog", p.Name), metrics.L("clusters", strconv.Itoa(len(plan.jobs))))
	results := make([]windowResult, len(plan.jobs))
	runJob := func(ctx context.Context, i int) windowResult {
		w := plan.jobs[i]
		_, sp := metrics.StartSpan(ctx, "sample.repwindow",
			metrics.L("index", strconv.Itoa(i)), metrics.L("start", strconv.Itoa(w.start)))
		r := replayRepWindow(p, cfg, mg, w, spec.Interval)
		sp.End()
		noteSampleWindow()
		return r
	}
	streamPool(ctx, spec.Workers, len(plan.jobs), results, runJob)
	runSpan.End()

	return plan.aggregate(results, n)
}

// replayRepWindow runs one representative window without a pre-recorded
// trace: a fresh emulation feeds the warm-up records [0, preStart) one chunk
// at a time into the machine's predictive structures (discarded once fed),
// then the detailed slice [preStart, end) is collected and simulated with the
// usual pre-roll snapshot. Re-warming every window from scratch, it is the
// independent oracle for runRepWindows' single warm pass.
func replayRepWindow(p *prog.Program, cfg Config, mg MGConfig, w repWindow, chunk int) windowResult {
	m, maxCycles, err := setupMachine(p, cfg, mg, nil, nil, defaultSched, false)
	if err != nil {
		return windowResult{err: err}
	}
	s := emu.NewState(p, emu.Options{CollectTrace: true})
	ws := newWarmReplay(&m.predictors, p, m.layout)
	for s.DynInstrs() < int64(w.preStart) {
		target := s.DynInstrs() + int64(chunk)
		if target > int64(w.preStart) {
			target = int64(w.preStart)
		}
		if err := s.RunTo(target); err != nil {
			return windowResult{err: err}
		}
		for _, rec := range s.TakeTrace() {
			ws.add(rec)
		}
		if s.Halted() {
			break
		}
	}
	m.predictors.clearStats()
	if err := s.RunTo(int64(w.end)); err != nil {
		return windowResult{err: err}
	}
	m.tr = s.TakeTrace()
	var snap prerollSnap
	st, err := m.mainLoop(maxCycles, int64(w.start-w.preStart), &snap)
	if err != nil {
		return windowResult{err: err}
	}
	return repDeltas(st, &snap)
}

// streamPool runs jobs 0..n-1 through fn, serially or on workers goroutines,
// writing each result to its slot so aggregation order is deterministic.
func streamPool(ctx context.Context, workers, n int, results []windowResult, fn func(context.Context, int) windowResult) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i] = fn(ctx, i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := metrics.WithTid(ctx, sampleTidBase+w)
			for i := range idx {
				results[i] = fn(wctx, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
