package core

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/simcache"
)

// This file is the sweep-telemetry layer: structured task lifecycle
// logging (log/slog), the /metrics registry bootstrap, and the shared
// cache-counter printer used by the driver commands.

// telemetry is the process-wide structured logger for task lifecycle
// events. Nil (the default) disables telemetry entirely; drivers install
// a logger via SetTelemetry for -v runs.
var telemetry atomic.Pointer[slog.Logger]

// SetTelemetry installs (or, with nil, removes) the structured logger
// that receives sweep and task lifecycle events.
func SetTelemetry(l *slog.Logger) { telemetry.Store(l) }

// tlog returns the installed telemetry logger, or nil when telemetry is
// off. Callers nil-check so disabled telemetry costs one atomic load.
func tlog() *slog.Logger { return telemetry.Load() }

// FprintCacheStats prints the process-wide simulation-cache counters in
// the one format shared by every driver command's -cachestats flag.
func FprintCacheStats(w io.Writer) {
	c := Caches()
	fmt.Fprintf(w, "cache: benches %d entries %d hits %d misses %.1f MB; results %d entries %d hits (%d shared) %d misses\n",
		c.Benches.Entries, c.Benches.Hits+c.Benches.Shared, c.Benches.Misses, float64(c.Benches.Bytes)/(1<<20),
		c.Results.Entries, c.Results.Hits, c.Results.Shared, c.Results.Misses)
}

// sweepSeries holds the sweep-level metric instruments. The fields stay
// nil until EnableMetrics runs; all instrument methods are no-ops on nil,
// so feeding them needs no guards.
var sweepSeries struct {
	sweeps      *metrics.Counter
	tasksDone   *metrics.Counter
	tasksFailed *metrics.Counter
	taskSeconds *metrics.Histogram
}

// taskWallBuckets covers task wall times from sub-millisecond cache hits
// to multi-minute uncached simulations.
var taskWallBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}

var enableMetricsOnce sync.Once

// EnableMetrics installs the process-wide metrics registry (served at
// /metrics by obs.ServeDebug) and registers the core and pipeline series
// on it: sweep/task counters, the task wall-time histogram, per-cache
// lookup counters, and the simulation cycle/uop/instruction totals.
// Idempotent; returns the installed registry.
func EnableMetrics() *metrics.Registry {
	enableMetricsOnce.Do(func() {
		reg := metrics.NewRegistry()
		registerCacheSeries(reg, "benches", benchCache.Stats)
		registerCacheSeries(reg, "results", resultCache.Stats)
		sweepSeries.sweeps = reg.Counter("mg_sweeps_total", "experiment sweeps started")
		sweepSeries.tasksDone = reg.Counter("mg_sweep_tasks_total",
			"sweep (workload, series) tasks finished, by final state", metrics.L("state", "done"))
		sweepSeries.tasksFailed = reg.Counter("mg_sweep_tasks_total",
			"sweep (workload, series) tasks finished, by final state", metrics.L("state", "error"))
		sweepSeries.taskSeconds = reg.Histogram("mg_task_wall_seconds",
			"wall time per sweep task", taskWallBuckets)
		pipeline.InstallMetrics(reg)
		obs.InstallMetrics(reg)
		metrics.InstallHealthMetrics(reg)
		metrics.Install(reg)
	})
	return metrics.Default()
}

// registerCacheSeries exposes one simulation cache's counters: lookup
// outcomes as counters, retained entries/bytes as gauges. Values are read
// from a consistent Stats snapshot at scrape time — no per-operation cost.
func registerCacheSeries(reg *metrics.Registry, name string, stats func() simcache.Counters) {
	cacheL := metrics.L("cache", name)
	for _, oc := range []struct {
		outcome string
		get     func(simcache.Counters) int64
	}{
		{"hit", func(c simcache.Counters) int64 { return c.Hits }},
		{"shared", func(c simcache.Counters) int64 { return c.Shared }},
		{"miss", func(c simcache.Counters) int64 { return c.Misses }},
	} {
		get := oc.get
		reg.CounterFunc("mg_cache_lookups_total", "simulation-cache lookups by outcome",
			func() float64 { return float64(get(stats())) }, cacheL, metrics.L("outcome", oc.outcome))
	}
	reg.GaugeFunc("mg_cache_entries", "simulation-cache entries retained",
		func() float64 { return float64(stats().Entries) }, cacheL)
	reg.GaugeFunc("mg_cache_bytes", "estimated simulation-cache payload bytes",
		func() float64 { return float64(stats().Bytes) }, cacheL)
}

// taskDone is one finished sweep task, measured once by its worker:
// finishTask hands this one value to every completion sink, so they all
// report the same wall time.
type taskDone struct {
	index      int // position in the sweep's task list
	workload   string
	spec       SeriesSpec
	worker     int
	wall       time.Duration
	use        metrics.Usage
	specResult // point, bench and observed files
	err        error
}

// finishTask records one finished task of sweep title in the run ledger,
// the sweep metrics, the task.finish log line and /debug/sweep.
func finishTask(title string, opts Options, track *metrics.SweepProgress, d taskDone) {
	// An append failure is logged, never fatal: history is an
	// observability concern, not a correctness one.
	if err := appendRecord(ledger.Record{Tool: "sweep", Sweep: title, Workload: d.workload,
		Series: d.spec.Label, Input: opts.input(), Files: d.files},
		d.bench, d.spec, opts.Sample, d.Point, d.wall, d.use, d.err); err != nil {
		if l := tlog(); l != nil {
			l.Warn("ledger.append", "error", err)
		}
	}
	if d.err != nil {
		sweepSeries.tasksFailed.Inc()
	} else {
		sweepSeries.tasksDone.Inc()
	}
	sweepSeries.taskSeconds.Observe(d.wall.Seconds())
	if l := tlog(); l != nil {
		l.Info("task.finish", "sweep", title, "workload", d.workload,
			"series", d.spec.Label, "worker", d.worker,
			"wall_ms", float64(d.wall)/float64(time.Millisecond), "cache", d.Cache)
	}
	track.TaskDone(d.index, d.Cache, d.wall, d.err)
}
