package metrics

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock returns a deterministic clock advancing 1µs per reading.
func fakeClock() func() int64 {
	var now int64
	return func() int64 {
		now += 1000
		return now
	}
}

// buildSyntheticSweep records the span tree of a 2-worker, 4-task sweep
// with deterministic interleaving: both workers run one task concurrently
// (overlapping span windows on distinct tids), then one task each in
// sequence. The calls happen on one goroutine — a worker identity is just
// a tid-stamped context — so the recorded trace is exactly reproducible.
func buildSyntheticSweep(tr *Tracer) {
	InstallTracer(tr)
	defer InstallTracer(nil)

	ctx := WithTask(context.Background(), 1, 0)
	ctx, sweep := StartSpan(ctx, "sweep", L("title", "synthetic"), L("input", "small"))
	w1 := WithTid(ctx, 1)
	w2 := WithTid(ctx, 2)

	// Tasks 0 and 1 overlap across the two workers.
	t0ctx, t0 := StartSpan(w1, "task", L("workload", "wl.a"), L("series", "s0"))
	t1ctx, t1 := StartSpan(w2, "task", L("workload", "wl.a"), L("series", "s1"))
	_, sim0 := StartSpan(t0ctx, "simulate", L("config", "reduced"))
	_, sim1 := StartSpan(t1ctx, "simulate", L("config", "reduced"))
	sim0.End()
	t0.SetAttr("cache", "miss")
	t0.End()
	sim1.End()
	t1.SetAttr("cache", "miss")
	t1.End()

	// Tasks 2 and 3 run back to back, one per worker.
	t2ctx, t2 := StartSpan(w1, "task", L("workload", "wl.b"), L("series", "s0"))
	cctx, c2 := StartSpan(t2ctx, "cache.results")
	_, sim2 := StartSpan(cctx, "simulate", L("config", "reduced"))
	sim2.End()
	c2.SetAttr("outcome", "miss")
	c2.End()
	t2.SetAttr("cache", "miss")
	t2.End()

	_, t3 := StartSpan(w2, "task", L("workload", "wl.b"), L("series", "s1"))
	t3.SetAttr("cache", "hit")
	t3.End()

	sweep.End()
}

// TestChromeTraceGolden pins the exact Chrome trace-event encoding of the
// synthetic sweep: metadata rows, event order (ts-sorted, E before B on
// ties), pids/tids, and args.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracerClock(fakeClock())
	buildSyntheticSweep(tr)

	var b bytes.Buffer
	if err := WriteChromeTrace(&b, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sweep_2w4t.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/metrics -update` to create goldens)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("trace drift.\n got:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}

// TestChromeTraceValid round-trips the synthetic sweep through the
// reader and the structural validator: monotonic timestamps, matched
// B/E pairs per (pid, tid), nothing left open.
func TestChromeTraceValid(t *testing.T) {
	tr := NewTracerClock(fakeClock())
	buildSyntheticSweep(tr)

	var b bytes.Buffer
	if err := WriteChromeTrace(&b, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadChromeTrace(&b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(parsed); err != nil {
		t.Errorf("synthetic sweep trace invalid: %v", err)
	}
	// 9 spans -> 18 B/E events, plus 1 process + 3 thread metadata rows.
	if got := len(parsed.TraceEvents); got != 22 {
		t.Errorf("got %d events, want 22", got)
	}
}

// TestValidateCatchesCorruption checks the validator actually rejects
// broken traces (it guards the golden files, so it must not be vacuous).
func TestValidateCatchesCorruption(t *testing.T) {
	tr := NewTracerClock(fakeClock())
	buildSyntheticSweep(tr)
	spans := tr.Spans()

	var b bytes.Buffer
	if err := WriteChromeTrace(&b, spans); err != nil {
		t.Fatal(err)
	}
	good, err := ReadChromeTrace(&b)
	if err != nil {
		t.Fatal(err)
	}

	// Drop one E event: its span stays open.
	broken := &ChromeTrace{}
	dropped := false
	for _, e := range good.TraceEvents {
		if !dropped && e.Ph == "E" {
			dropped = true
			continue
		}
		broken.TraceEvents = append(broken.TraceEvents, e)
	}
	if err := ValidateChromeTrace(broken); err == nil {
		t.Error("validator accepted a trace with an unmatched B")
	}

	// Time travel: swap ts ordering.
	rev := &ChromeTrace{TraceEvents: append([]TraceEvent(nil), good.TraceEvents...)}
	for i := range rev.TraceEvents {
		if rev.TraceEvents[i].Ph != "M" {
			rev.TraceEvents[i].Ts = -rev.TraceEvents[i].Ts
		}
	}
	if err := ValidateChromeTrace(rev); err == nil {
		t.Error("validator accepted non-monotonic timestamps")
	}
}

// TestSpanNesting checks parent linkage and pid/tid inheritance: children
// inherit the task coordinates stamped on the context, WithTid keeps the
// sweep pid, and explicit WithTask overrides both.
func TestSpanNesting(t *testing.T) {
	tr := NewTracerClock(fakeClock())
	InstallTracer(tr)
	defer InstallTracer(nil)

	ctx := WithTask(context.Background(), 7, 0)
	ctx, root := StartSpan(ctx, "root")
	wctx := WithTid(ctx, 3)
	cctx, child := StartSpan(wctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, g := byName["root"], byName["child"], byName["grandchild"]
	if c.Parent != r.ID || g.Parent != c.ID {
		t.Errorf("parent chain broken: root=%d child.parent=%d child=%d grand.parent=%d",
			r.ID, c.Parent, c.ID, g.Parent)
	}
	if r.Pid != 7 || r.Tid != 0 {
		t.Errorf("root at pid/tid %d/%d, want 7/0", r.Pid, r.Tid)
	}
	if c.Pid != 7 || c.Tid != 3 {
		t.Errorf("WithTid child at pid/tid %d/%d, want 7/3", c.Pid, c.Tid)
	}
	if g.Pid != 7 || g.Tid != 3 {
		t.Errorf("grandchild at pid/tid %d/%d, want 7/3", g.Pid, g.Tid)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: end %d before start %d", s.Name, s.End, s.Start)
		}
	}
}

// TestDisabledTracer checks the off path: no tracer, nil spans, no
// recording, context untouched.
func TestDisabledTracer(t *testing.T) {
	InstallTracer(nil)
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "x", L("a", "b"))
	if sp != nil {
		t.Error("StartSpan returned a span with no tracer installed")
	}
	if ctx2 != ctx {
		t.Error("StartSpan changed the context with no tracer installed")
	}
	sp.SetAttr("k", "v") // must not panic
	sp.End()
}

// TestTracerConcurrent hammers one tracer from many goroutines; run with
// -race this checks the recording path is safe.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	InstallTracer(tr)
	defer InstallTracer(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithTask(context.Background(), 1, w)
			for i := 0; i < 100; i++ {
				c, sp := StartSpan(ctx, "outer")
				_, in := StartSpan(c, "inner")
				in.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8*100*2 {
		t.Errorf("recorded %d spans, want %d", got, 8*100*2)
	}
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadChromeTrace(&b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(parsed); err != nil {
		t.Errorf("concurrent trace invalid: %v", err)
	}
}

// TestSpanCPUAccounting covers the opt-in CPU path: with accounting on,
// a span's record carries the thread's CPU delta and the Chrome export
// stamps cpu_ms; with accounting off (the default), neither appears and
// fake-clock traces stay byte-deterministic. The span is measured on a
// pinned goroutine, the precondition the thread CPU clock documents (see
// cputime.go): unpinned, a migration between threads records "not
// measured" and the busy span reads zero.
func TestSpanCPUAccounting(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tr := NewTracer()
	InstallTracer(tr)
	defer InstallTracer(nil)
	SetCPUAccounting(true)
	defer SetCPUAccounting(false)

	_, sp := StartSpan(context.Background(), "busy")
	_ = burnCPU(30 * time.Millisecond)
	sp.End()

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].CPUNanos <= 0 {
		t.Fatalf("no CPU recorded on a busy span: %d", spans[0].CPUNanos)
	}
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b.Bytes(), []byte(`"cpu_ms"`)) {
		t.Errorf("chrome export missing cpu_ms arg:\n%s", b.Bytes())
	}

	// Accounting off: the golden fake-clock trace must carry no cpu_ms.
	SetCPUAccounting(false)
	tr2 := NewTracerClock(fakeClock())
	buildSyntheticSweep(tr2)
	for _, s := range tr2.Spans() {
		if s.CPUNanos != 0 {
			t.Errorf("span %q recorded CPU with accounting off: %d", s.Name, s.CPUNanos)
		}
	}
}

// TestSetCPUNanosOverride checks the worker-side override: an explicit
// measured value replaces the span's own delta, zero and negative values
// are ignored, and a nil span does not panic.
func TestSetCPUNanosOverride(t *testing.T) {
	tr := NewTracerClock(fakeClock())
	InstallTracer(tr)
	defer InstallTracer(nil)

	_, sp := StartSpan(context.Background(), "task")
	sp.SetCPUNanos(-5) // ignored
	sp.SetCPUNanos(0)  // ignored
	sp.SetCPUNanos(7_000_000)
	sp.End()
	var nilSpan *Span
	nilSpan.SetCPUNanos(1) // must not panic

	spans := tr.Spans()
	if len(spans) != 1 || spans[0].CPUNanos != 7_000_000 {
		t.Fatalf("override lost: %+v", spans)
	}
}

// TestWriteSpansJSONL checks the JSONL exporter emits one object per span
// in (start, id) order.
func TestWriteSpansJSONL(t *testing.T) {
	tr := NewTracerClock(fakeClock())
	buildSyntheticSweep(tr)
	var b bytes.Buffer
	if err := WriteSpansJSONL(&b, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b.Bytes()), []byte("\n"))
	if len(lines) != 9 {
		t.Fatalf("got %d JSONL lines, want 9", len(lines))
	}
	if !bytes.Contains(lines[0], []byte(`"name":"sweep"`)) {
		t.Errorf("first line is not the sweep span: %s", lines[0])
	}
}
