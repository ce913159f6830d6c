package pipeline

import (
	"context"
	"fmt"

	"repro/internal/emu"
	"repro/internal/prog"
)

// SampleSpec configures sampled simulation: representative-interval
// sampling (see represent.go) slices the trace into Interval-record
// intervals, clusters them, and simulates a few Window-record windows in
// detail, each functionally warmed by the trace before it.
type SampleSpec struct {
	// Interval is the feature-interval length, in dynamic instructions. A
	// trace of at most Interval records runs in full detail instead.
	Interval int
	// Window is the measured length of each detailed window, in
	// instructions.
	Window int
	// Workers bounds how many windows simulate concurrently; 0 or 1 runs
	// them serially. Results are aggregated in window order, so the
	// estimate is identical for any worker count.
	Workers int
	// Mode selects the sampling method. SampleRepresentative is the only
	// one; the zero value is rejected.
	Mode SampleMode
	// Clusters is the detailed-window budget; 0 auto-scales it with the
	// trace length (see planRepWindows).
	Clusters int
}

// Summary renders the spec as a compact tag for ledger records and report
// banners, e.g. "rep/i1000/w1000/k8". Worker count is omitted: it never
// changes the estimate.
func (s SampleSpec) Summary() string {
	return fmt.Sprintf("%s/i%d/w%d/k%d", s.Mode, s.Interval, s.Window, s.Clusters)
}

// NeedsPlan reports whether a sampled run of a traceLen-record trace under s
// simulates representative windows, and so needs a RepPlan: a trace that
// fits one interval runs in full instead.
func (s SampleSpec) NeedsPlan(traceLen int) bool {
	return traceLen > s.Interval
}

func (s SampleSpec) validate() error {
	if s.Interval <= 0 || s.Window <= 0 || s.Window > s.Interval {
		return fmt.Errorf("pipeline: bad sample spec %+v", s)
	}
	if s.Mode != SampleRepresentative {
		return fmt.Errorf("pipeline: bad sample mode in spec %+v", s)
	}
	if s.Clusters < 0 {
		return fmt.Errorf("pipeline: negative cluster count in spec %+v", s)
	}
	return nil
}

// windowResult carries one detailed window's measured deltas (its run minus
// its pre-roll, see repDeltas) back to the aggregation loop.
type windowResult struct {
	cycles, instrs, uops, simulated        int64
	handles, embedded, mispredicts, replay int64
	err                                    error
}

// sampleTidBase offsets sampling-pool worker tids away from the sweep
// worker tids (which are small integers) in exported traces.
const sampleTidBase = 1000

// RunSampledReport estimates a full run's statistics from representative
// windows of tr and reports what it simulated: how many windows, how much
// was simulated in detail, and the heuristic error bound. A trace that fits
// one interval runs in full detail instead. Otherwise it builds a RepPlan
// and runs it (see RunRepPlan); the estimate is deterministic for any
// spec.Workers. The run's spans nest under ctx's.
func RunSampledReport(ctx context.Context, p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, spec SampleSpec) (*Stats, SampleReport, error) {
	if err := spec.validate(); err != nil {
		return nil, SampleReport{}, err
	}
	if !spec.NeedsPlan(len(tr)) {
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
	pl, err := NewRepPlan(p, tr, cfg, spec)
	if err != nil {
		return nil, SampleReport{}, err
	}
	return RunRepPlan(ctx, pl, p, tr, cfg, mg, spec)
}
