package metrics

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span layer: hierarchical timed regions threaded through
// the sweep service via context. A span records who (pid = sweep, tid =
// worker), what (name + attributes), and when (monotonic nanoseconds since
// the tracer started). Spans are exported as JSONL or Chrome trace-event
// JSON (see export.go) so a whole sweep opens in Perfetto/chrome://tracing.

// SpanRecord is one finished span.
type SpanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Pid    int    `json:"pid"` // process row in the trace viewer: one per sweep
	Tid    int    `json:"tid"` // thread row: one per worker (0 = orchestrator)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// CPUNanos is the exact CPU time the span consumed (thread CPU-clock
	// delta), captured when CPU accounting is on (SetCPUAccounting) and the
	// goroutine stayed on one pinned OS thread; 0 = not measured.
	CPUNanos int64   `json:"cpu_ns,omitempty"`
	Attrs    []Label `json:"attrs,omitempty"`
}

// cpuAccounting gates per-span thread-CPU capture. Off by default: spans
// must stay deterministic under fake-clock tracers (golden tests), and an
// unpinned goroutine can migrate OS threads mid-span, which would make the
// delta meaningless. Drivers enable it alongside -trace-out; sweep workers
// pin their threads, so phase spans under a task measure exactly.
var cpuAccounting atomic.Bool

// SetCPUAccounting toggles per-span CPU-time capture process-wide.
func SetCPUAccounting(on bool) { cpuAccounting.Store(on) }

// CPUAccountingOn reports whether per-span CPU capture is enabled.
func CPUAccountingOn() bool { return cpuAccounting.Load() }

// Tracer collects finished spans. Recording is a mutex-guarded append;
// spans are coarse (task and phase granularity), so contention is
// negligible next to the work they time.
type Tracer struct {
	clock func() int64 // monotonic nanoseconds since tracer start

	mu    sync.Mutex
	spans []SpanRecord

	ids atomic.Int64
}

// NewTracer creates a tracer timing spans against the wall clock
// (monotonic, relative to creation time).
func NewTracer() *Tracer {
	base := time.Now()
	return &Tracer{clock: func() int64 { return int64(time.Since(base)) }}
}

// NewTracerClock creates a tracer with an explicit clock (deterministic
// tests).
func NewTracerClock(clock func() int64) *Tracer {
	return &Tracer{clock: clock}
}

// curTracer is the process-wide tracer; nil (the default) disables span
// collection entirely — StartSpan returns a nil *Span whose methods are
// no-ops.
var curTracer atomic.Pointer[Tracer]

// InstallTracer makes t the process-wide tracer (nil uninstalls).
func InstallTracer(t *Tracer) { curTracer.Store(t) }

// CurrentTracer returns the installed tracer, or nil when tracing is off.
func CurrentTracer() *Tracer { return curTracer.Load() }

// pidSeq allocates pids (one per sweep) process-wide; pid 0 is the
// implicit default for spans outside any sweep.
var pidSeq atomic.Int64

// NextPid allocates a fresh trace pid. Sweeps call it once so that each
// sweep becomes one process row in the trace viewer.
func NextPid() int { return int(pidSeq.Add(1)) }

// Spans returns a copy of the finished spans, sorted by (Start, ID).
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Reset drops all recorded spans (tests).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// Span is an in-flight timed region. A nil Span (tracing off) is valid:
// every method is a no-op.
type Span struct {
	t        *Tracer
	rec      SpanRecord
	cpuOn    bool
	cpuStart int64
}

type ctxKey int

const (
	ctxSpan ctxKey = iota
	ctxTask
)

type taskID struct{ pid, tid int }

// WithTask stamps ctx with the trace coordinates of subsequent spans: pid
// identifies the sweep, tid the worker within it.
func WithTask(ctx context.Context, pid, tid int) context.Context {
	return context.WithValue(ctx, ctxTask, taskID{pid, tid})
}

// WithTid stamps ctx with a new tid, keeping the pid stamped by an
// enclosing WithTask (pid 0 when there is none). Worker pools use it to
// give each worker its own thread row within the surrounding sweep.
func WithTid(ctx context.Context, tid int) context.Context {
	pid := 0
	if id, ok := ctx.Value(ctxTask).(taskID); ok {
		pid = id.pid
	}
	return context.WithValue(ctx, ctxTask, taskID{pid, tid})
}

// StartSpan begins a span named name under the span in ctx (if any),
// carrying the pid/tid stamped by WithTask. It returns a derived context
// for child spans and the span itself; call End to record it. When no
// tracer is installed it returns ctx unchanged and a nil span — the
// disabled path does no allocation beyond the variadic attrs slice.
func StartSpan(ctx context.Context, name string, attrs ...Label) (context.Context, *Span) {
	t := curTracer.Load()
	if t == nil {
		return ctx, nil
	}
	s := &Span{t: t}
	s.rec.ID = t.ids.Add(1)
	s.rec.Name = name
	s.rec.Attrs = attrs
	if parent, ok := ctx.Value(ctxSpan).(*Span); ok && parent != nil {
		s.rec.Parent = parent.rec.ID
		s.rec.Pid = parent.rec.Pid
		s.rec.Tid = parent.rec.Tid
	}
	if id, ok := ctx.Value(ctxTask).(taskID); ok {
		s.rec.Pid = id.pid
		s.rec.Tid = id.tid
	}
	if cpuAccounting.Load() {
		s.cpuOn = true
		s.cpuStart = threadCPUNanos()
	}
	s.rec.Start = t.clock()
	return context.WithValue(ctx, ctxSpan, s), s
}

// SetCPUNanos overrides the span's CPU time with an externally measured
// value (the sweep workers bracket whole tasks with MarkUsage/Since and
// stamp the exact delta here); non-positive values are ignored.
func (s *Span) SetCPUNanos(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.rec.CPUNanos = n
	s.cpuOn = false
}

// SetAttr attaches (or appends) an attribute; call before End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	for i := range s.rec.Attrs {
		if s.rec.Attrs[i].Key == key {
			s.rec.Attrs[i].Value = value
			return
		}
	}
	s.rec.Attrs = append(s.rec.Attrs, Label{key, value})
}

// End finishes the span and records it into the tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.cpuOn {
		// Clamp migrations (unpinned goroutine moved threads) to "not
		// measured" rather than recording another thread's time.
		if d := threadCPUNanos() - s.cpuStart; d > 0 {
			s.rec.CPUNanos = d
		}
	}
	s.rec.End = s.t.clock()
	if s.rec.End < s.rec.Start {
		s.rec.End = s.rec.Start
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}
