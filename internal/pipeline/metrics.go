package pipeline

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// This file is the pipeline's metrics surface: process-wide simulation
// counters (runs, cycles, uops, instructions, sample windows) registered
// on the metrics registry by InstallMetrics. The counters are bumped once
// per completed run — never inside the cycle loop — so the hot path cost
// with metrics off is a single atomic pointer load per run.

// simSeries holds the registered counters; nil (the default) means
// metrics are off.
type simSeries struct {
	runs    *metrics.Counter
	cycles  *metrics.Counter
	uops    *metrics.Counter
	instrs  *metrics.Counter
	windows *metrics.Counter
}

var simMetrics atomic.Pointer[simSeries]

// InstallMetrics registers the pipeline's simulation counters on reg and
// starts feeding them. Safe to call more than once (re-registration
// returns the existing series).
func InstallMetrics(reg *metrics.Registry) {
	simMetrics.Store(&simSeries{
		runs:    reg.Counter("mg_sim_runs_total", "completed timing-simulator runs"),
		cycles:  reg.Counter("mg_sim_cycles_total", "simulated cycles summed over all completed runs"),
		uops:    reg.Counter("mg_sim_uops_total", "committed micro-ops summed over all completed runs"),
		instrs:  reg.Counter("mg_sim_instrs_total", "committed instructions summed over all completed runs"),
		windows: reg.Counter("mg_sim_sample_windows_total", "sample windows simulated by RunSampledReport"),
	})
}

// noteRun feeds a completed run's statistics into the counters; a no-op
// when metrics are off.
func noteRun(st *Stats) {
	s := simMetrics.Load()
	if s == nil {
		return
	}
	s.runs.Inc()
	s.cycles.Add(st.Cycles)
	s.uops.Add(st.Uops)
	s.instrs.Add(st.Instrs)
}

// noteSampleWindow counts one simulated sample window.
func noteSampleWindow() {
	if s := simMetrics.Load(); s != nil {
		s.windows.Inc()
	}
}
