package pipeline

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// SampleSpec configures periodic-sampling simulation, the methodology the
// paper uses for its SPEC runs ("2% periodic sampling with warm-up").
type SampleSpec struct {
	// Interval is the period, in dynamic instructions, between sample
	// windows (e.g. 50_000 for 2% sampling with 1_000-instruction windows).
	Interval int
	// Window is the measured length of each sample, in instructions.
	Window int
	// Warmup is the number of instructions simulated before each window to
	// warm the caches, predictors and window without being measured.
	Warmup int
	// Workers bounds how many sample windows simulate concurrently; 0 or 1
	// runs them serially. Windows are independent (each gets a fresh
	// machine) and results are aggregated in window order, so the estimate
	// is identical for any worker count.
	Workers int
	// Mode selects uniform periodic windows (the zero value — the original
	// methodology) or representative-interval selection (see represent.go).
	Mode SampleMode
	// Clusters is the number of k-means clusters — and detailed windows —
	// in representative mode; 0 means DefaultSampleClusters.
	Clusters int
}

// Summary renders the spec as a compact tag for ledger records and report
// banners, e.g. "rep/i1000/w1000/k8" or "uniform/i50000/w1000/u250". Worker
// count is omitted: it never changes the estimate.
func (s SampleSpec) Summary() string {
	if s.Mode == SampleRepresentative {
		return fmt.Sprintf("rep/i%d/w%d/k%d", s.Interval, s.Window, s.Clusters)
	}
	return fmt.Sprintf("uniform/i%d/w%d/u%d", s.Interval, s.Window, s.Warmup)
}

// Rate returns the fraction of the program actually measured.
func (s SampleSpec) Rate() float64 {
	if s.Interval == 0 {
		return 1
	}
	return float64(s.Window) / float64(s.Interval)
}

// NeedsPlan reports whether a sampled run of a traceLen-record trace under s
// simulates representative windows, and so needs a RepPlan: uniform mode
// needs none, and neither does a trace short enough to run in full.
func (s SampleSpec) NeedsPlan(traceLen int) bool {
	return s.Mode == SampleRepresentative && traceLen > s.Interval+s.Warmup
}

func (s SampleSpec) validate() error {
	if s.Interval <= 0 || s.Window <= 0 || s.Window > s.Interval || s.Warmup < 0 {
		return fmt.Errorf("pipeline: bad sample spec %+v", s)
	}
	if s.Mode != SampleUniform && s.Mode != SampleRepresentative {
		return fmt.Errorf("pipeline: bad sample mode in spec %+v", s)
	}
	if s.Clusters < 0 {
		return fmt.Errorf("pipeline: negative cluster count in spec %+v", s)
	}
	return nil
}

// windowResult carries one sample window's measured deltas (full subtrace
// run minus the warm-up prefix rerun) back to the aggregation loop.
type windowResult struct {
	cycles, instrs, uops, simulated        int64
	handles, embedded, mispredicts, replay int64
	err                                    error
}

// runWindow simulates one sample window on a fresh machine: the warm-up
// prefix alone, then the whole subtrace, reporting the difference as the
// measured region.
func runWindow(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, spec SampleSpec, start int) windowResult {
	warmStart := start - spec.Warmup
	if warmStart < 0 {
		warmStart = 0
	}
	// A window must begin at a control-transfer boundary so the first
	// fetched instruction starts a fetch group cleanly; any boundary
	// works since the machine is fresh. Simulate [warmStart, end).
	end := start + spec.Window
	sub := tr[warmStart:end]
	warmStats := &Stats{}
	if warmStart < start {
		var err error
		warmStats, err = Run(p, sub[:start-warmStart], cfg, mg, nil)
		if err != nil {
			return windowResult{err: err}
		}
	}
	fullStats, err := Run(p, sub, cfg, mg, nil)
	if err != nil {
		return windowResult{err: err}
	}
	return windowResult{
		cycles:      fullStats.Cycles - warmStats.Cycles,
		instrs:      fullStats.Instrs - warmStats.Instrs,
		uops:        fullStats.Uops - warmStats.Uops,
		simulated:   fullStats.Instrs + warmStats.Instrs,
		handles:     fullStats.Handles - warmStats.Handles,
		embedded:    fullStats.EmbeddedInstrs - warmStats.EmbeddedInstrs,
		mispredicts: fullStats.BranchMispredicts - warmStats.BranchMispredicts,
		replay:      fullStats.Replays - warmStats.Replays,
	}
}

// sampleTidBase offsets sampling-pool worker tids away from the sweep
// worker tids (which are small integers) in exported traces.
const sampleTidBase = 1000

// runTracedWindow is runWindow wrapped in a trace span and the
// sample-window counter; zero-cost when metrics and tracing are off.
func runTracedWindow(ctx context.Context, p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, spec SampleSpec, start, i int) windowResult {
	_, sp := metrics.StartSpan(ctx, "sample.window",
		metrics.L("index", strconv.Itoa(i)), metrics.L("start", strconv.Itoa(start)))
	r := runWindow(p, tr, cfg, mg, spec, start)
	sp.End()
	noteSampleWindow()
	return r
}

// RunSampledReport estimates a full run's statistics from sample windows of
// tr and reports what it simulated: which mode ran, how many windows, how
// much was simulated in detail, and (in representative mode) the heuristic
// error bound. Uniform mode simulates periodic windows, each on a fresh
// machine warmed by the preceding Warmup instructions in detail (cold-start
// bias beyond the warm-up is the standard cost of this methodology), and
// extrapolates cycles and uops from the measured instruction share.
// Representative mode builds a RepPlan and runs it (see RunRepPlan).
// Windows are simulated serially or by spec.Workers goroutines; either way
// the aggregation happens in window order, so the estimate is
// deterministic. The run's spans nest under ctx's.
func RunSampledReport(ctx context.Context, p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, spec SampleSpec) (*Stats, SampleReport, error) {
	if err := spec.validate(); err != nil {
		return nil, SampleReport{}, err
	}
	if len(tr) <= spec.Interval+spec.Warmup {
		// Short program: just run it all.
		st, err := Run(p, tr, cfg, mg, nil)
		return st, SampleReport{
			Mode:          spec.Mode,
			Full:          true,
			Windows:       1,
			DetailInstrs:  int64(len(tr)),
			SimulatedFrac: 1,
		}, err
	}
	if spec.Mode == SampleRepresentative {
		pl, err := NewRepPlan(p, tr, cfg, spec)
		if err != nil {
			return nil, SampleReport{}, err
		}
		return RunRepPlan(ctx, pl, p, tr, cfg, mg, spec)
	}

	var starts []int
	for start := spec.Interval; start+spec.Window <= len(tr); start += spec.Interval {
		starts = append(starts, start)
	}
	ctx, runSpan := metrics.StartSpan(ctx, "sampled.run",
		metrics.L("prog", p.Name), metrics.L("windows", strconv.Itoa(len(starts))))
	results := make([]windowResult, len(starts))
	if spec.Workers > 1 {
		// Worker-indexed pool: each worker gets its own trace tid so its
		// window spans form one clean row in the trace viewer.
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < spec.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wctx := metrics.WithTid(ctx, sampleTidBase+w)
				for i := range idx {
					results[i] = runTracedWindow(wctx, p, tr, cfg, mg, spec, starts[i], i)
				}
			}(w)
		}
		for i := range starts {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i, start := range starts {
			results[i] = runTracedWindow(ctx, p, tr, cfg, mg, spec, start, i)
		}
	}
	runSpan.End()

	return aggregateUniform(results, len(tr), spec)
}

// aggregateUniform combines uniform-mode window results into whole-run
// estimates by extrapolating from the measured instruction share.
func aggregateUniform(results []windowResult, traceLen int, spec SampleSpec) (*Stats, SampleReport, error) {
	est := &Stats{}
	var measuredInstrs, measuredCycles, measuredUops, simulated int64
	for _, r := range results {
		if r.err != nil {
			return nil, SampleReport{}, r.err
		}
		measuredCycles += r.cycles
		measuredInstrs += r.instrs
		measuredUops += r.uops
		simulated += r.simulated
		est.Handles += r.handles
		est.EmbeddedInstrs += r.embedded
		est.BranchMispredicts += r.mispredicts
		est.Replays += r.replay
	}
	if measuredInstrs <= 0 {
		return nil, SampleReport{}, fmt.Errorf("pipeline: sampling measured nothing (trace %d, spec %+v)", traceLen, spec)
	}
	scale := float64(traceLen) / float64(measuredInstrs)
	est.Instrs = int64(traceLen)
	est.Cycles = int64(float64(measuredCycles) * scale)
	est.Uops = int64(float64(measuredUops) * scale)
	return est, SampleReport{
		Mode:          SampleUniform,
		Windows:       len(results),
		DetailInstrs:  simulated,
		SimulatedFrac: float64(simulated) / float64(traceLen),
	}, nil
}
