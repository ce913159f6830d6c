package core

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/simcache"
)

// TestMetricsScrapeMidSweep hammers the /metrics exposition while a sweep
// runs (exercised under -race in CI): every scrape must parse, and every
// mg_cache_* sample — read from Cache.Stats snapshots — must be
// non-negative.
func TestMetricsScrapeMidSweep(t *testing.T) {
	ResetCaches()
	reg := EnableMetrics()

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			var b bytes.Buffer
			if err := reg.WritePrometheus(&b); err != nil {
				t.Errorf("mid-sweep scrape: %v", err)
				scraped <- n
				return
			}
			samples, err := metrics.ParseText(&b)
			if err != nil {
				t.Errorf("mid-sweep scrape not parseable: %v", err)
				scraped <- n
				return
			}
			for _, s := range samples {
				if strings.HasPrefix(s.Name, "mg_cache_") && s.Value < 0 {
					t.Errorf("nonsense mid-sweep sample %s = %v", s.Key(), s.Value)
				}
			}
			n++
		}
	}()

	if _, err := RunSweep("metrics-scrape", smallSweepOpts(), smallSpecs()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("scraper never ran")
	}
}

// TestMetricsSweepSeries enables the registry, runs a sweep, and checks the
// Prometheus exposition parses and carries the full instrument set — the
// acceptance floor is twelve series.
func TestMetricsSweepSeries(t *testing.T) {
	ResetCaches()
	reg := EnableMetrics()
	if reg == nil {
		t.Fatal("EnableMetrics returned nil")
	}
	opts := smallSweepOpts()
	if _, err := RunSweep("metrics-series", opts, smallSpecs()); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("exposition not parseable: %v\n%s", err, b.String())
	}
	if len(samples) < 12 {
		t.Errorf("only %d samples exposed, want >= 12:\n%s", len(samples), b.String())
	}

	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] += s.Value
	}
	for _, name := range []string{
		"mg_sweeps_total", "mg_sweep_tasks_total", "mg_task_wall_seconds_count",
		"mg_cache_lookups_total", "mg_cache_entries", "mg_cache_bytes",
		"mg_sim_runs_total", "mg_sim_cycles_total", "mg_sim_instrs_total",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("series %s missing from exposition", name)
		}
	}
	nTasks := float64(len(opts.workloads()) * len(smallSpecs()))
	if byName["mg_sweep_tasks_total"] < nTasks {
		t.Errorf("mg_sweep_tasks_total = %v, want >= %v", byName["mg_sweep_tasks_total"], nTasks)
	}
	if byName["mg_sim_cycles_total"] <= 0 {
		t.Error("mg_sim_cycles_total never incremented")
	}
	if byName["mg_task_wall_seconds_count"] < nTasks {
		t.Errorf("mg_task_wall_seconds_count = %v, want >= %v", byName["mg_task_wall_seconds_count"], nTasks)
	}
}

// TestTaskMeasuredOnce checks that a finished task is measured once and
// every sink reports that one measurement: each task's run-ledger wall_ms
// equals its /debug/sweep elapsed_ms, and the mg_task_wall_seconds sum
// grows by the ledger's total.
func TestTaskMeasuredOnce(t *testing.T) {
	ResetCaches()
	reg := EnableMetrics()
	l, err := ledger.Open(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	SetLedger(l)
	defer SetLedger(nil)
	wallSum := func() float64 {
		t.Helper()
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(&b)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if s.Name == "mg_task_wall_seconds_sum" {
				return s.Value
			}
		}
		t.Fatal("no mg_task_wall_seconds_sum sample")
		return 0
	}

	sum0 := wallSum()
	opts := smallSweepOpts()
	opts.Workers = 2
	const title = "measured once"
	if _, err := RunSweep(title, opts, smallSpecs()); err != nil {
		t.Fatal(err)
	}
	sum := wallSum() - sum0

	elapsed := map[string]float64{}
	for _, s := range metrics.SnapshotSweeps() {
		if s.Title == title {
			for _, ts := range s.Tasks {
				elapsed[ts.Workload+"|"+ts.Series] = ts.ElapsedMS
			}
		}
	}
	recs, _, err := ledger.Read(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(opts.workloads()) * len(smallSpecs()); len(recs) != want || len(elapsed) != want {
		t.Fatalf("%d ledger records and %d /debug/sweep tasks, want %d of each", len(recs), len(elapsed), want)
	}
	var total float64
	for _, r := range recs {
		if got := elapsed[r.Workload+"|"+r.Series]; got != r.WallMS {
			t.Errorf("%s/%s: /debug/sweep elapsed_ms %v, ledger wall_ms %v", r.Workload, r.Series, got, r.WallMS)
		}
		total += r.WallMS
	}
	if math.Abs(sum-total/1e3) > 1e-9*sum {
		t.Errorf("mg_task_wall_seconds sum grew by %v s, ledger total is %v s", sum, total/1e3)
	}
}

// runTracedSweep runs one small sweep, at sampled fidelity unless sample is
// nil, with a fresh tracer and cold caches, returning the recorded spans.
func runTracedSweep(t *testing.T, workers int, sample *pipeline.SampleSpec) []metrics.SpanRecord {
	t.Helper()
	ResetCaches()
	tr := metrics.NewTracer()
	metrics.InstallTracer(tr)
	defer metrics.InstallTracer(nil)
	opts := smallSweepOpts()
	opts.Workers = workers
	opts.Sample = sample
	if _, err := RunSweep("traced", opts, smallSpecs()); err != nil {
		t.Fatal(err)
	}
	return tr.Spans()
}

// validChromeTrace reports whether spans export to a structurally valid
// Chrome trace: matched B/E pairs per thread row, monotonic timestamps.
func validChromeTrace(spans []metrics.SpanRecord) error {
	var b bytes.Buffer
	if err := metrics.WriteChromeTrace(&b, spans); err != nil {
		return err
	}
	parsed, err := metrics.ReadChromeTrace(&b)
	if err != nil {
		return err
	}
	return metrics.ValidateChromeTrace(parsed)
}

// TestTraceCoversEveryTask checks the span tree a sweep records: one sweep
// root, one task span per (workload, series) pair on a worker tid, and a
// structurally valid Chrome trace export.
func TestTraceCoversEveryTask(t *testing.T) {
	spans := runTracedSweep(t, 2, nil)
	opts := smallSweepOpts()
	ws := opts.workloads()
	specs := smallSpecs()

	attr := func(s metrics.SpanRecord, key string) string {
		for _, l := range s.Attrs {
			if l.Key == key {
				return l.Value
			}
		}
		return ""
	}

	var sweepSpans, taskSpans []metrics.SpanRecord
	for _, s := range spans {
		switch s.Name {
		case "sweep":
			sweepSpans = append(sweepSpans, s)
		case "task":
			taskSpans = append(taskSpans, s)
		}
	}
	if len(sweepSpans) != 1 {
		t.Fatalf("got %d sweep spans, want 1", len(sweepSpans))
	}
	root := sweepSpans[0]
	if root.Tid != 0 {
		t.Errorf("sweep span on tid %d, want 0 (orchestrator)", root.Tid)
	}
	if len(taskSpans) != len(ws)*len(specs) {
		t.Fatalf("got %d task spans, want %d", len(taskSpans), len(ws)*len(specs))
	}
	covered := map[string]bool{}
	for _, s := range taskSpans {
		if s.Pid != root.Pid {
			t.Errorf("task span on pid %d, sweep on %d", s.Pid, root.Pid)
		}
		if s.Tid < 1 {
			t.Errorf("task span on tid %d, want a worker tid >= 1", s.Tid)
		}
		if s.Parent != root.ID {
			t.Errorf("task span parent %d, want sweep %d", s.Parent, root.ID)
		}
		if attr(s, "cache") == "" {
			t.Error("task span missing cache outcome attr")
		}
		covered[attr(s, "workload")+"|"+attr(s, "series")] = true
	}
	for _, w := range ws {
		for _, sp := range specs {
			if !covered[w.Name+"|"+sp.Label] {
				t.Errorf("no task span for (%s, %s)", w.Name, sp.Label)
			}
		}
	}

	if err := validChromeTrace(spans); err != nil {
		t.Errorf("sweep trace invalid: %v", err)
	}
}

// TestSampledTraceNestsUnderSimulate runs sampled sweeps on several
// workers. Each sampled run's span must nest under its task's simulate span:
// a run opened on a background context lands on pid 0 tid 0, where
// concurrent runs interleave and the export is invalid.
func TestSampledTraceNestsUnderSimulate(t *testing.T) {
	sample := pipeline.SampleSpec{Interval: 1000, Window: 1000, Mode: pipeline.SampleRepresentative}
	for _, workers := range []int{2, 4} {
		spans := runTracedSweep(t, workers, &sample)
		name := fmt.Sprintf("%s workers=%d", sample.Summary(), workers)
		byID := make(map[int64]metrics.SpanRecord, len(spans))
		for _, s := range spans {
			byID[s.ID] = s
		}
		var runs, orphans int
		for _, s := range spans {
			if s.Name != "sampled.rep" {
				continue
			}
			runs++
			if byID[s.Parent].Name != "simulate" {
				orphans++
			}
		}
		if runs == 0 {
			t.Errorf("%s: no sampled run spans", name)
		}
		if orphans > 0 {
			t.Errorf("%s: %d of %d sampled run spans have no simulate parent", name, orphans, runs)
		}
		if err := validChromeTrace(spans); err != nil {
			t.Errorf("%s: trace invalid: %v", name, err)
		}
	}
}

// normalizeSpans reduces a span list to a sorted multiset of
// name + attrs, dropping the scheduling-dependent cache/outcome attrs —
// which worker hits and which shares depends on timing, but the set of
// computations performed must not.
func normalizeSpans(spans []metrics.SpanRecord) []string {
	out := make([]string, 0, len(spans))
	for _, s := range spans {
		var attrs []string
		for _, l := range s.Attrs {
			if l.Key == "cache" || l.Key == "outcome" {
				continue
			}
			attrs = append(attrs, l.Key+"="+l.Value)
		}
		sort.Strings(attrs)
		out = append(out, s.Name+"{"+strings.Join(attrs, ",")+"}")
	}
	sort.Strings(out)
	return out
}

// TestTraceStableAcrossWorkers runs the same cold-cache sweep with one and
// four workers: singleflight guarantees each computation happens exactly
// once, so the normalized span multiset must be identical.
func TestTraceStableAcrossWorkers(t *testing.T) {
	one := normalizeSpans(runTracedSweep(t, 1, nil))
	four := normalizeSpans(runTracedSweep(t, 4, nil))
	if len(one) != len(four) {
		t.Fatalf("span count differs: %d with one worker, %d with four\none: %v\nfour: %v",
			len(one), len(four), diffSets(one, four), diffSets(four, one))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("span multiset differs at %d: %q vs %q\nonly-one: %v\nonly-four: %v",
				i, one[i], four[i], diffSets(one, four), diffSets(four, one))
		}
	}
}

// diffSets returns elements of a (with multiplicity) not matched in b.
func diffSets(a, b []string) []string {
	count := map[string]int{}
	for _, s := range b {
		count[s]++
	}
	var out []string
	for _, s := range a {
		if count[s] > 0 {
			count[s]--
			continue
		}
		out = append(out, s)
	}
	return out
}

// TestCacheOutcomeAttribution checks the three DoCtx outcomes land in the
// trace: a cold lookup is a miss, a repeat is a hit.
func TestCacheOutcomeAttribution(t *testing.T) {
	ResetCaches()
	tr := metrics.NewTracer()
	metrics.InstallTracer(tr)
	defer metrics.InstallTracer(nil)
	opts := smallSweepOpts()
	opts.Workers = 1
	if _, err := RunSweep("outcomes-a", opts, smallSpecs()); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep("outcomes-b", opts, smallSpecs()); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range tr.Spans() {
		if !strings.HasPrefix(s.Name, "cache.") {
			continue
		}
		for _, l := range s.Attrs {
			if l.Key == "outcome" {
				counts[s.Name+":"+l.Value]++
			}
		}
	}
	if counts["cache.results:"+simcache.Miss] == 0 {
		t.Errorf("no result-cache misses recorded on a cold run: %v", counts)
	}
	if counts["cache.results:"+simcache.Hit] == 0 {
		t.Errorf("no result-cache hits recorded on the repeat run: %v", counts)
	}
}

// TestTraceOffIsFree asserts the disabled path records nothing and costs
// no allocations in StartSpan beyond the call itself.
func TestTraceOffIsFree(t *testing.T) {
	metrics.InstallTracer(nil)
	ResetCaches()
	opts := smallSweepOpts()
	opts.Workloads = []string{opts.workloads()[0].Name}
	if _, err := RunSweep("untraced", opts, smallSpecs()[:1]); err != nil {
		t.Fatal(err)
	}
	// No tracer was installed, so nothing to assert beyond "it ran" — the
	// nil-guard property itself is covered in internal/metrics. This test
	// exists to keep the disabled path exercised from core.
	if metrics.CurrentTracer() != nil {
		t.Error("tracer installed unexpectedly")
	}
}
