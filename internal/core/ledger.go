package core

import (
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// This file bridges the sweep engine and the driver commands to the
// persistent run ledger. The ledger follows the telemetry idiom: a
// process-wide atomic pointer that is nil by default, so recording costs
// one atomic load when off and the simulation paths stay byte-identical
// either way.

// runLedger is the installed run-history ledger; nil disables recording.
var runLedger atomic.Pointer[ledger.Ledger]

// SetLedger installs (or, with nil, removes) the run ledger that receives
// one record per completed simulation task, and wires the /debug/dash
// observatory to it. Drivers call this once at startup for -ledger runs.
func SetLedger(l *ledger.Ledger) {
	runLedger.Store(l)
	if l != nil {
		obs.SetDashHandler(ledger.DashHandler(RunLedger))
	}
}

// RunLedger returns the installed run ledger, or nil when recording is
// off.
func RunLedger() *ledger.Ledger { return runLedger.Load() }

// appendRecord appends one finished series point pt to the installed run
// ledger; a no-op when none is installed. Sweep tasks (finishTask) and the
// driver commands (Task.Finish) all record through it. r names the task
// (tool, sweep, workload, series, input, files, attribution); appendRecord
// fills in the rest: the point's key, TaskKey of sp on b under sample (none
// when b is nil: the task failed before its bench was prepared), its cache
// outcome, its run's stats (or, for a point that made no run, its
// selection's coverage), the sampling spec that makes them estimates when
// sample is non-nil, the wall time and resources measured, and err. Only
// the record reads the key, so it is hashed here, after the ledger check.
func appendRecord(r ledger.Record, b *Bench, sp SeriesSpec, sample *pipeline.SampleSpec, pt Point, wall time.Duration, use metrics.Usage, err error) error {
	l := runLedger.Load()
	if l == nil {
		return nil
	}
	if b != nil {
		r.Key = TaskKey(b, sp, sample).Short()
	}
	r.Cache = pt.Cache
	r.WallMS = float64(wall) / float64(time.Millisecond)
	r.CPUMS = float64(use.CPUNanos) / 1e6
	r.MaxRSSKB, r.GCCycles = use.MaxRSSKB, use.GCCycles
	if st := pt.Stats; st != nil {
		r.Cycles, r.Instrs, r.Uops = st.Cycles, st.Instrs, st.Uops
		r.IPC, r.UPC, r.Coverage = st.IPC(), st.UPC(), st.Coverage()
	} else if pt.Selection != nil {
		r.Coverage = pt.Selection.Coverage()
	}
	if sample != nil {
		r.Estimate, r.Sample = true, sample.Summary()
	}
	if err != nil {
		r.Error = err.Error()
	}
	return l.Append(r)
}
