package core

import (
	"context"
	"runtime"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// This file is the one evaluation of a series point, the flow the paper
// evaluates every point with: profile a singleton run where the policy
// needs a profile, select mini-graphs, then time the selection on the
// target machine. RunSweep's tasks and the driver commands (mgsim,
// mgselect, mgreport -attrib) all evaluate their point through EvalPoint,
// measure it as a Task and record it through appendRecord, so a driver run
// has a sweep task's spans, key, cache outcome and ledger record.

// cacheTraced is the cache outcome of an observed point, whose timing run
// bypasses the result cache. Every other point reports how its timing run
// was answered ("hit", "shared" or "miss"; always "miss" with caching
// disabled).
const cacheTraced = "traced"

// Point is one evaluated series point.
type Point struct {
	Stats     *pipeline.Stats       // the timing run's; estimates when sampled
	Selection *minigraph.Selection  // the policy's mini-graphs; nil for a singleton
	Report    pipeline.SampleReport // the sampled run's fidelity; zero when exact
	Cache     string                // how the timing run was answered
}

// EvalPoint evaluates series point sp on b. It takes the selection through
// the shared caches (SelectionFor), then times it on sp.Cfg through the
// result cache, at sampled fidelity when sample is non-nil. A non-nil watch
// observes the timing run instead, which then bypasses the result cache (a
// hit would swallow the trace) and reports the outcome "traced"; a traced
// run is exact, so pass at most one of sample and watch. The caller owns
// and closes watch. The profile, select and simulate spans nest under ctx's
// span.
func EvalPoint(ctx context.Context, b *Bench, sp SeriesSpec, sample *pipeline.SampleSpec, watch *obs.Observer) (Point, error) {
	return evalPoint(ctx, b, sp, sample, watch, nil)
}

// evalPoint is EvalPoint for a sweep task: the exact singleton on a machine
// in profiled, which the sweep profiles on b's input (ownProfiles), is that
// profile's run.
func evalPoint(ctx context.Context, b *Bench, sp SeriesSpec, sample *pipeline.SampleSpec, watch *obs.Observer, profiled map[pipeline.Config]bool) (Point, error) {
	var pt Point
	var err error
	if sp.Sel != nil {
		if pt.Selection, _, err = SelectionFor(ctx, b, sp); err != nil {
			return pt, err
		}
	}
	mg := mgConfigFor(sp.Sel, pt.Selection)
	var r runResult
	if watch != nil {
		r, err = simulate(ctx, b, sp.Cfg, mg, nil, watch)
		pt.Cache = cacheTraced
	} else {
		r, pt.Cache, err = timingRun(ctx, b, sp.Cfg, mg, sample, profiled)
	}
	pt.Stats, pt.Report = r.stats, r.report
	return pt, err
}

// Task measures one series point the way a sweep worker measures its task:
// one "task" span, the wall time and the CPU time, taken once. RunSweep's
// workers open one per (workload, series); a driver command opens one
// around its point with StartTask and ends it with Finish.
type Task struct {
	// Ctx carries the task span: the point's spans nest under it.
	Ctx context.Context

	workload, series string
	span             *metrics.Span
	t0               time.Time
	mark             metrics.UsageMark
}

func startTask(ctx context.Context, workload, series string, mark func() metrics.UsageMark) *Task {
	t := &Task{workload: workload, series: series, t0: time.Now(), mark: mark()}
	t.Ctx, t.span = metrics.StartSpan(ctx, "task",
		metrics.L("workload", workload), metrics.L("series", series))
	return t
}

// StartTask opens a driver command's task for one series point, on the
// calling goroutine, which it pins to its OS thread until Finish, as
// RunSweep pins its workers: the spans nested in the task then measure
// their thread CPU time exactly. The task itself measures whole-process
// CPU time: a driver's profiling and sampled runs fan out over goroutines,
// which one thread's clock would undercount.
func StartTask(workload, series string) *Task {
	runtime.LockOSThread()
	return startTask(context.Background(), workload, series, metrics.MarkProcessUsage)
}

// end ends the task span, stamped with the point's cache outcome and,
// under CPU accounting, the task's CPU time, and returns the task's one
// measurement.
func (t *Task) end(outcome string) (time.Duration, metrics.Usage) {
	wall, use := time.Since(t.t0), t.mark.Since()
	if metrics.CPUAccountingOn() {
		t.span.SetCPUNanos(use.CPUNanos)
	}
	t.span.SetAttr("cache", outcome)
	t.span.End()
	return wall, use
}

// Finish ends a driver's task and appends the run-ledger record of its
// point pt: sp on b (nil when preparation failed) under sample. r names
// what the driver adds (tool, sweep, input, files, attribution); Finish
// fills in the task's workload and series, and appendRecord the rest.
func (t *Task) Finish(r ledger.Record, b *Bench, sp SeriesSpec, sample *pipeline.SampleSpec, pt Point, err error) error {
	wall, use := t.end(pt.Cache)
	runtime.UnlockOSThread()
	r.Workload, r.Series = t.workload, t.series
	return appendRecord(r, b, sp, sample, pt, wall, use, err)
}
