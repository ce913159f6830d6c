package main

import (
	"fmt"
	"os"
	"path/filepath"
	rtm "runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/slack"
	"repro/internal/workload"
)

// The traced run replays a pass's deduplicated work serially through the
// public Bench API — Prepare, Profile once per profile configuration,
// Select, and Run, RunSingleton or RunSampledReport — with a span around
// every call. Spans are recorded by this file only; the simulator runs with
// all of its own observability off.

// work is what a span's call did, for per-instruction and per-cycle rates.
type work struct {
	instrs, cycles int64
	coverage       float64 // select: share of dynamic instructions in mini-graphs
	rep            pipeline.SampleReport
}

func runWork(st *pipeline.Stats) work {
	if st == nil {
		return work{}
	}
	return work{instrs: st.Instrs, cycles: st.Cycles}
}

// span is one recorded call. Times are offsets from the tracer's epoch;
// cpu is the calling OS thread's CPU time, alloc the heap bytes allocated.
type span struct {
	id, parent int
	name, req  string
	start, end time.Duration
	cpu        time.Duration
	alloc      uint64
	work
}

// tracer keeps spans in memory. It must be used from one goroutine locked
// to its OS thread, since span CPU is read from the thread's CPU clock.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	heap  []rtm.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), heap: []rtm.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) heapAllocs() uint64 {
	rtm.Read(t.heap)
	return t.heap[0].Value.Uint64()
}

// begin opens a span under the innermost open one and returns its handle.
// A nil tracer records nothing.
func (t *tracer) begin(name, req string) int {
	if t == nil {
		return -1
	}
	s := span{id: len(t.spans) + 1, name: name, req: req}
	if n := len(t.open); n > 0 {
		s.parent = t.spans[t.open[n-1]].id
	}
	s.alloc = t.heapAllocs()
	s.cpu = time.Duration(threadCPU())
	s.start = time.Since(t.epoch)
	t.spans = append(t.spans, s)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int, w work) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	cpu := time.Duration(threadCPU())
	s := &t.spans[i]
	s.end = end
	s.cpu = cpu - s.cpu
	s.alloc = t.heapAllocs() - s.alloc
	s.work = w
	t.open = t.open[:len(t.open)-1]
}

// tracedPass replays one pass of w over names under one "pass" span and
// returns the outcomes and the benches it prepared.
func (w *benchWorkload) tracedPass(names []string, tr *tracer) (outs []outcome, benches map[string]*core.Bench) {
	benches = map[string]*core.Bench{}
	root := tr.begin("pass", w.name)
	if w.isSweep() {
		outs = w.replaySweep(names, tr)
	} else {
		for _, t := range w.tasks(names) {
			ts := tr.begin("task", t.req)
			b, ok := benches[t.prog]
			var err error
			if !ok {
				b, err = tracedPrepare(tr, t.prog, t.req, w.input)
				benches[t.prog] = b
			}
			if b == nil {
				outs = append(outs, outcome{req: t.req, err: fmt.Errorf("prepare %s failed: %v", t.prog, err)})
			} else {
				outs = append(outs, w.do(b, t, tr))
			}
			tr.end(ts, work{})
		}
	}
	tr.end(root, work{})
	return outs, benches
}

// referencePass runs a sampled workload's tasks in full detail under a
// "reference" span: the cost the sampling speedup divides by.
func (w *benchWorkload) referencePass(names []string, benches map[string]*core.Bench, tr *tracer) []outcome {
	detailed := *w
	detailed.sample = nil
	var outs []outcome
	ref := tr.begin("reference", w.name)
	for _, t := range w.tasks(names) {
		if b := benches[t.prog]; b != nil {
			ts := tr.begin("task", t.req)
			outs = append(outs, detailed.do(b, t, tr))
			tr.end(ts, work{})
		}
	}
	tr.end(ref, work{})
	return outs
}

func tracedPrepare(tr *tracer, prog, req, input string) (*core.Bench, error) {
	s := tr.begin("prepare", req)
	b, err := core.Prepare(workload.Find(prog), input)
	var w work
	if b != nil {
		w.instrs = int64(len(b.Trace))
	}
	tr.end(s, w)
	return b, err
}

// replaySweep replays a sweep the way its caches deduplicate it: per
// program one preparation, one fully-provisioned baseline run (the
// relative-performance base, which the baseline singleton series reuses),
// one profile per profile configuration, and one select and run per series.
func (w *benchWorkload) replaySweep(names []string, tr *tracer) []outcome {
	var outs []outcome
	for _, n := range names {
		var b *core.Bench
		var base *pipeline.Stats
		var failed error
		profs := map[pipeline.Config]*slack.Profile{}
		for _, t := range w.tasks([]string{n}) {
			ts := tr.begin("task", t.req)
			if b == nil && failed == nil {
				b, failed = tracedPrepare(tr, n, t.req, w.input)
				if failed == nil {
					s := tr.begin("run", t.req)
					base, failed = b.RunSingleton(pipeline.Baseline())
					tr.end(s, runWork(base))
				}
			}
			o := outcome{req: t.req, err: failed}
			if failed == nil {
				st, err := replayPoint(b, t, base, profs, tr)
				o.err = err
				if err == nil {
					o.vals = [2]string{fmtFloat(float64(base.Cycles) / float64(st.Cycles)), fmtFloat(st.Coverage())}
					o.broken = detailedCheck(b, st, false)
				}
			}
			outs = append(outs, o)
			tr.end(ts, work{})
		}
	}
	return outs
}

func replayPoint(b *core.Bench, t task, base *pipeline.Stats, profs map[pipeline.Config]*slack.Profile, tr *tracer) (*pipeline.Stats, error) {
	if t.sel == nil {
		if t.cfg == pipeline.Baseline() {
			return base, nil
		}
		s := tr.begin("run", t.req)
		st, err := b.RunSingleton(t.cfg)
		tr.end(s, runWork(st))
		return st, err
	}
	var prof *slack.Profile
	if t.sel.NeedsProfile() {
		prof = profs[t.profCfg]
		if prof == nil {
			s := tr.begin("profile", t.req)
			p, err := b.Profile(t.profCfg)
			tr.end(s, work{instrs: int64(len(b.Trace))})
			if err != nil {
				return nil, err
			}
			prof, profs[t.profCfg] = p, p
		}
	}
	s := tr.begin("select", t.req)
	chosen := b.Select(t.sel, prof)
	tr.end(s, work{coverage: chosen.Coverage()})
	s = tr.begin("run", t.req)
	st, err := b.Run(t.cfg, t.sel, chosen)
	tr.end(s, runWork(st))
	return st, err
}

// layer sums the leaf spans of one name under one kind of root span.
type layer struct {
	calls          int
	cpu            time.Duration
	alloc          uint64
	instrs, cycles int64
	coverage       float64
	windows        int64
	detailed       int64
}

// layers aggregates leaf spans by name, separately under each root kind
// ("pass" and "reference"), and sums the CPU of the "pass" roots.
func (t *tracer) layers() (byRoot map[string]map[string]*layer, passCPU time.Duration) {
	byRoot = map[string]map[string]*layer{}
	rootOf := map[int]string{} // span id -> name of its root
	for _, s := range t.spans {
		if s.parent == 0 {
			rootOf[s.id] = s.name
			if s.name == "pass" {
				passCPU += s.cpu
			}
			continue
		}
		root := rootOf[s.parent]
		rootOf[s.id] = root
		if s.name == "task" {
			continue
		}
		m := byRoot[root]
		if m == nil {
			m = map[string]*layer{}
			byRoot[root] = m
		}
		l := m[s.name]
		if l == nil {
			l = &layer{}
			m[s.name] = l
		}
		l.calls++
		l.cpu += s.cpu
		l.alloc += s.alloc
		l.instrs += s.instrs
		l.cycles += s.cycles
		l.coverage += s.coverage
		l.windows += int64(s.rep.Windows)
		l.detailed += s.rep.DetailInstrs
	}
	return byRoot, passCPU
}

// layerNames are the leaf spans whose CPU shares, with the harness share
// (the replay loop and the spans' own cost), sum to 100.
var layerNames = []struct{ span, metric string }{
	{"prepare", "core.prepare.share"},
	{"profile", "slack.profile.share"},
	{"select", "selector.select.share"},
	{"run", "pipeline.run.share"},
	{"sample", "pipeline.sample.share"},
}

// layerMetrics computes the per-layer metrics from the traced passes
// (passes of them), their stage profile, and the totals of the untraced
// rounds of the same run.
func layerMetrics(tr *tracer, passes int, st stageCounts, untraced []sample, ipcErr float64) map[string]float64 {
	byRoot, passCPU := tr.layers()
	pass, ref := byRoot["pass"], byRoot["reference"]
	get := func(m map[string]*layer, name string) *layer {
		if l := m[name]; l != nil {
			return l
		}
		return &layer{}
	}
	per := func(v float64) float64 { return v / float64(passes) }
	out := map[string]float64{}
	var layerCPU time.Duration
	for _, ln := range layerNames {
		cpu := get(pass, ln.span).cpu
		out[ln.metric] = pct(float64(cpu), float64(passCPU))
		layerCPU += cpu
	}
	out["harness.share"] = pct(float64(passCPU-layerCPU), float64(passCPU))

	prep := get(pass, "prepare")
	out["core.prepare.calls"] = per(float64(prep.calls))
	out["core.prepare.cpu_ms"] = per(prep.cpu.Seconds() * 1e3)
	out["core.prepare.ns_per_instr"] = ratio(float64(prep.cpu), float64(prep.instrs))

	// A sampled workload runs no detailed simulation of its own; its
	// pipeline.run figures come from the detailed reference runs.
	run := get(pass, "run")
	if run.calls == 0 {
		run = get(ref, "run")
	}
	runNsPerInstr := ratio(float64(run.cpu), float64(run.instrs))
	out["pipeline.run.calls"] = per(float64(run.calls))
	out["pipeline.run.cpu_s"] = per(run.cpu.Seconds())
	out["pipeline.run.ns_per_instr"] = runNsPerInstr
	out["pipeline.run.ns_per_cycle"] = ratio(float64(run.cpu), float64(run.cycles))
	out["pipeline.run.alloc_b_per_run"] = ratio(float64(run.alloc), float64(run.calls))
	out["pipeline.run.sim_instrs"] = per(float64(run.instrs))
	out["pipeline.run.sim_cycles"] = per(float64(run.cycles))

	prof := get(pass, "profile")
	out["slack.profile.calls"] = per(float64(prof.calls))
	out["slack.profile.cost_x_run"] = ratio(ratio(float64(prof.cpu), float64(prof.instrs)), runNsPerInstr)
	out["slack.profile.alloc_b_per_instr"] = ratio(float64(prof.alloc), float64(prof.instrs))

	sel := get(pass, "select")
	out["selector.select.calls"] = per(float64(sel.calls))
	out["selector.select.us_per_call"] = ratio(sel.cpu.Seconds()*1e6, float64(sel.calls))
	out["selector.select.coverage"] = 100 * ratio(sel.coverage, float64(sel.calls))

	smp := get(pass, "sample")
	out["pipeline.sample.calls"] = per(float64(smp.calls))
	out["pipeline.sample.detailed_frac"] = pct(float64(smp.detailed), float64(smp.instrs))
	out["pipeline.sample.windows"] = per(float64(smp.windows))
	out["pipeline.sample.speedup"] = ratio(float64(get(ref, "run").cpu), float64(smp.cpu))
	out["pipeline.sample.ipc_err_pct"] = ipcErr

	for name, share := range st.shares() {
		out[name] = share
	}

	med := func(f func(sample) float64) float64 {
		v := make([]float64, len(untraced))
		for i, p := range untraced {
			v[i] = f(p)
		}
		return median(v)
	}
	untracedCPU := med(func(p sample) float64 { return p.cpu })
	out["simcache.results.misses"] = med(func(p sample) float64 { return float64(p.misses) })
	out["simcache.results.hit_ratio"] = med(func(p sample) float64 { return pct(float64(p.hits), float64(p.hits+p.misses)) })
	out["simcache.benches.misses"] = med(func(p sample) float64 { return float64(p.benchMisses) })
	out["core.sweep.overhead_cpu_s"] = untracedCPU - per(layerCPU.Seconds())
	out["core.sweep.parallel_eff"] = med(func(p sample) float64 { return pct(p.cpu, p.wall*workers) })
	out["runtime.gc_cycles"] = med(func(p sample) float64 { return p.gcCycles })
	out["runtime.gc_cpu_frac"] = med(func(p sample) float64 { return pct(p.gcCPU, p.busyCPU) })
	out["trace.overhead_pct"] = 100 * (ratio(per(passCPU.Seconds()), untracedCPU) - 1)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b float64) float64 { return 100 * ratio(a, b) }

// writeSpans writes the spans as a Chrome trace that mgtrace -spans reads:
// one thread row, the request id and allocated bytes as span arguments.
func (t *tracer) writeSpans(path string) error {
	recs := make([]metrics.SpanRecord, len(t.spans))
	for i, s := range t.spans {
		recs[i] = metrics.SpanRecord{
			ID: int64(s.id), Parent: int64(s.parent), Name: s.name,
			Start: int64(s.start), End: int64(s.end), CPUNanos: int64(s.cpu),
			Attrs: []metrics.Label{metrics.L("req", s.req), metrics.L("alloc_b", fmt.Sprint(s.alloc))},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteChromeTrace(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
