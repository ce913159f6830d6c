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

// AppendRecord appends one finished task to the installed run ledger; a
// no-op when none is installed. r names the task (tool, sweep, workload,
// series, input, key, cache outcome, files, attribution); AppendRecord
// fills in what was measured: the wall time, the resources consumed, the
// run's stats when st is non-nil, the sampling spec that makes them
// estimates when sample is non-nil, and err. Sweep tasks and the
// single-run drivers all record through it.
func AppendRecord(r ledger.Record, wall time.Duration, use metrics.Usage, st *pipeline.Stats, sample *pipeline.SampleSpec, err error) error {
	l := runLedger.Load()
	if l == nil {
		return nil
	}
	r.WallMS = float64(wall) / float64(time.Millisecond)
	r.CPUMS = float64(use.CPUNanos) / 1e6
	r.MaxRSSKB, r.GCCycles = use.MaxRSSKB, use.GCCycles
	if st != nil {
		r.Cycles, r.Instrs, r.Uops = st.Cycles, st.Instrs, st.Uops
		r.IPC, r.UPC, r.Coverage = st.IPC(), st.UPC(), st.Coverage()
	}
	if sample != nil {
		r.Estimate, r.Sample = true, sample.Summary()
	}
	if err != nil {
		r.Error = err.Error()
	}
	return l.Append(r)
}
