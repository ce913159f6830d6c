// Command mgbench is the simulator's cost benchmark, end to end and layer
// by layer. It runs one workload per invocation:
//
//	mgbench -workload sweep-fig6 -seed 1 -seconds 25 -trace 0
//
// The seed draws a fixed number of programs per suite; the simulator only
// ever sees the drawn names. A run measures in rounds. A round is one pass
// of the workload, taken one program at a time: each program is set up and
// its share of the work runs on its own. Each run does one discarded
// warm-up round, then timed rounds until -seconds have passed. Before
// every round the simulation caches are dropped and the heap is collected,
// none of it timed.
//
// A pass time sums, over the programs, each program's best time over the
// timed rounds: on a shared host, contention only ever adds time, and the
// best of several short measurements is what repeats from run to run. The
// latency percentiles pool every timed round's samples. A slowdown of the host that lasts the whole run is taken out by a
// reference kernel (calibrate.go): host times are scaled to the reference
// host's speed. Every output is checked against the goldens; a wrong or
// failed output counts in tasks_failed and never stops the run.
//
// With -trace 0 the run reports the end-to-end metrics. With -trace 1 half
// of the time goes to untraced rounds and half to traced passes, which replay
// the pass's work serially with a span around every call into a layer and
// a CPU profile for the pipeline stage split; the run reports the
// per-layer metrics and writes the spans under -spans.
//
// Output: a readable table on stderr; on stdout the full report as one
// JSON line, then the result line with each metric's value and unit. The
// exit status is non-zero only when the benchmark itself cannot run.
//
//	mgbench -write-golden
//
// regenerates the goldens over all programs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtm "runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed that draws the programs")
	seconds := flag.Float64("seconds", 25, "time the timed rounds run for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := flag.String("spans", "", "directory for the traced run's Chrome trace (empty: not written)")
	goldenDir := flag.String("golden", "bench/golden", "directory of the golden files")
	writeGolden := flag.Bool("write-golden", false, "run every workload over all programs, write the goldens and exit")
	flag.Parse()
	runtime.GOMAXPROCS(workers)

	if *writeGolden {
		if err := writeGoldens(*goldenDir); err != nil {
			fatalf("writing goldens: %v", err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	g, err := loadGoldens(*goldenDir)
	if err != nil {
		fatalf("%v", err)
	}
	r, err := execute(w, g, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans})
	if err != nil {
		fatalf("%v", err)
	}
	if err := r.print(os.Stderr, os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mgbench: "+format+"\n", args...)
	os.Exit(1)
}

type runOpts struct {
	seed     int64
	seconds  float64
	perSuite int // programs drawn per suite; 0: the workload's own count
	trace    bool
	spans    string // directory for the traced run's spans ("" = none)
}

// sample is what one untraced measurement measured: one program in a
// round, or a whole round when summed by total (memMB then is the round's
// peak). Times are in seconds; wall and cpu exclude setup, which is
// measured on its own.
type sample struct {
	setup, wall, cpu float64
	allocMB          float64 // set-up included
	gcCycles         float64
	gcCPU, busyCPU   float64 // the runtime's CPU estimate: GC, and all but idle
	instrs           int64   // simulated instructions delivered
	hits, misses     int64   // result-cache lookups answered from it (or shared), and run
	benchMisses      int64
	memMB            float64   // the runtime's footprint after the program: mapped, less released
	lat              []float64 // ms, per unit of work: a task, or a sweep's program
	cal              float64   // the reference kernel's time just before
}

func total(round []sample) sample {
	var t sample
	for _, s := range round {
		t.setup += s.setup
		t.wall += s.wall
		t.cpu += s.cpu
		t.allocMB += s.allocMB
		t.gcCycles += s.gcCycles
		t.gcCPU += s.gcCPU
		t.busyCPU += s.busyCPU
		t.instrs += s.instrs
		t.hits += s.hits
		t.misses += s.misses
		t.benchMisses += s.benchMisses
		t.memMB = max(t.memMB, s.memMB)
	}
	return t
}

// runner runs the rounds of one workload over one draw.
type runner struct {
	w      *benchWorkload
	g      *goldens
	names  []string
	check  checkResult
	rounds [][]sample // timed rounds, each with one sample per program
}

// resetHeap drops the simulation caches and returns the heap to the OS, so
// that every round starts from the same state.
func resetHeap() {
	core.ResetCaches()
	runtime.GC()
	debug.FreeOSMemory()
}

// usage is a snapshot of the process counters a pass is measured by.
type usage struct {
	cpu                      int64 // process user+system CPU, ns
	allocs, gcs              uint64
	gcCPU, totalCPU, idleCPU float64
	mapped, released         uint64
}

var usageSamples = []rtm.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func readUsage() usage {
	rtm.Read(usageSamples)
	s := usageSamples
	return usage{
		cpu:      processCPU(),
		allocs:   s[0].Value.Uint64(),
		gcs:      s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		idleCPU:  s[4].Value.Float64(),
		mapped:   s[5].Value.Uint64(),
		released: s[6].Value.Uint64(),
	}
}

// measure sets up program n and runs the workload's work on it alone.
// Allocation counts the set-up too, so that allocation moved into set-up
// shows.
func (r *runner) measure(n string) sample {
	names := []string{n}
	cal := calibrate()
	c0 := core.Caches()
	a0 := readUsage().allocs
	t0 := time.Now()
	benches, prepErrs := r.w.setup(names)
	setup := time.Since(t0)
	u0 := readUsage()
	t1 := time.Now()
	outs, lat := r.w.run(names, benches, prepErrs)
	wall := time.Since(t1)
	u1 := readUsage()
	c1 := core.Caches()
	s := sample{
		setup:       setup.Seconds(),
		wall:        wall.Seconds(),
		cpu:         float64(u1.cpu-u0.cpu) / 1e9,
		allocMB:     float64(u1.allocs-a0) / (1 << 20),
		gcCycles:    float64(u1.gcs - u0.gcs),
		gcCPU:       u1.gcCPU - u0.gcCPU,
		busyCPU:     (u1.totalCPU - u0.totalCPU) - (u1.idleCPU - u0.idleCPU),
		memMB:       float64(u1.mapped-u1.released) / (1 << 20),
		hits:        (c1.Results.Hits + c1.Results.Shared) - (c0.Results.Hits + c0.Results.Shared),
		misses:      c1.Results.Misses - c0.Results.Misses,
		benchMisses: c1.Benches.Misses - c0.Benches.Misses,
		lat:         lat,
		cal:         cal,
	}
	if b := benches[n]; b != nil {
		s.instrs = int64(len(r.w.tasks(names))) * int64(len(b.Trace))
	}
	r.g.check(r.w.name, outs, &r.check)
	return s
}

// round measures every drawn program once, in the draw's order: one pass
// of the workload. The caches and the heap are reset before the round, not
// between its programs, so that a program's work finds the state the
// programs before it left, as in one sweep or one client session.
func (r *runner) round() []sample {
	resetHeap()
	out := make([]sample, len(r.names))
	for i, n := range r.names {
		out[i] = r.measure(n)
	}
	return out
}

// execute runs workload w on the draw of o.seed and reports its metrics.
func execute(w *benchWorkload, g *goldens, o runOpts) (*report, error) {
	n := w.perSuite
	if o.perSuite > 0 {
		n = o.perSuite
	}
	r := &runner{w: w, g: g, names: draw(g.programs, w.input, o.seed, n)}
	r.round() // warm-up
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	// Rounds run until the next one, as long as the last, would end past
	// the budget.
	for start := time.Now(); ; {
		t0 := time.Now()
		r.rounds = append(r.rounds, r.round())
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	rep := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Programs: r.names, Passes: len(r.rounds)}
	ipcErr := 100 * mean(r.check.ipcErr)
	if o.trace {
		if err := r.traced(budget, ipcErr, o, rep); err != nil {
			return nil, err
		}
	} else {
		if err := rep.setMetrics(endToEnd, r.endToEnd()); err != nil {
			return nil, err
		}
		slow := r.slowdown()
		rep.Extra = map[string]metricValue{
			"task_ms_p99":   latency(r.latencies(), 99).scaled(1 / slow).in("ms"),
			"host_slowdown": single(slow).in("x"),
		}
		if w.sample != nil {
			rep.Extra["ipc_err_pct"] = single(ipcErr).in("%")
		}
	}
	rep.Tasks, rep.TasksFailed, rep.Failures = r.check.attempted, r.check.failed, r.check.failures
	return rep, nil
}

// totals sums each timed round over its programs.
func (r *runner) totals() []sample {
	out := make([]sample, len(r.rounds))
	for i, round := range r.rounds {
		out[i] = total(round)
	}
	return out
}

// best sums, over the programs, each program's lowest value over the timed
// rounds. Its quartiles and count are those of the rounds' totals, which
// show how much contention the run met.
func (r *runner) best(f func(sample) float64) metricValue {
	totals := make([]float64, len(r.rounds))
	sum := 0.0
	for p := range r.names {
		low := math.Inf(1)
		for i, round := range r.rounds {
			v := f(round[p])
			low = min(low, v)
			totals[i] += v
		}
		sum += low
	}
	m := summarize(totals)
	m.Value = sum
	return m
}

// latencies pools the latency of every unit of work in every timed round.
// A percentile of the units' best times rests on the one or two units at
// that rank and swings from run to run; pooled, even the sweeps have more
// than ten samples beyond p90.
func (r *runner) latencies() []float64 {
	var out []float64
	for _, round := range r.rounds {
		for _, s := range round {
			out = append(out, s.lat...)
		}
	}
	return out
}

// slowdown is how much slower than the reference host this run's host ran:
// the reference kernel's time before each program, at its best over the
// timed rounds and averaged over the programs, over calRef. It is taken
// the way the programs' own best times are, so that the two compare.
func (r *runner) slowdown() float64 {
	return r.best(func(s sample) float64 { return s.cal }).Value / float64(len(r.names)) / calRef
}

// endToEnd reports the end-to-end metrics. Host times are scaled by the
// run's slowdown to the reference host; memory is as measured.
func (r *runner) endToEnd() map[string]metricValue {
	f := 1 / r.slowdown()
	wall := r.best(func(s sample) float64 { return s.wall }).scaled(f)
	instrs := float64(total(r.rounds[0]).instrs)
	mips := func(wall float64) float64 { return ratio(instrs, wall) / 1e6 }
	lat := r.latencies()
	var alloc, mem []float64
	for _, t := range r.totals() {
		alloc = append(alloc, t.allocMB)
		mem = append(mem, t.memMB)
	}
	return map[string]metricValue{
		"wall_s":      wall,
		"cpu_s":       r.best(func(s sample) float64 { return s.cpu }).scaled(f),
		"setup_s":     r.best(func(s sample) float64 { return s.setup }).scaled(f),
		"sim_mips":    {Value: mips(wall.Value), Q1: mips(wall.Q3), Q3: mips(wall.Q1), N: wall.N},
		"task_ms_p50": latency(lat, 50).scaled(f),
		"task_ms_p90": latency(lat, 90).scaled(f),
		"peak_mem_mb": summarize(mem),
		"alloc_mb":    summarize(alloc),
	}
}

// latency reports percentile p of the latencies, with their quartiles and
// count.
func latency(ms []float64, p float64) metricValue {
	m := summarize(ms)
	m.Value = percentile(ms, p)
	return m
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

// traced runs traced passes for budget (at least one) on this goroutine,
// locked to its OS thread, with the CPU profiler on during each pass, and
// fills rep with the per-layer metrics.
func (r *runner) traced(budget time.Duration, ipcErr float64, o runOpts, rep *report) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tr := newTracer()
	var counts stageCounts
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < budget; n++ {
		resetHeap()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		outs, benches := r.w.tracedPass(r.names, tr)
		pprof.StopCPUProfile()
		if err := counts.add(prof.Bytes()); err != nil {
			return err
		}
		r.g.check(r.w.name, outs, &r.check)
		if r.w.sample != nil && n == 0 {
			r.g.check("timing-large", r.w.referencePass(r.names, benches, tr), &r.check)
		}
	}
	vals := map[string]metricValue{}
	for name, v := range layerMetrics(tr, n, counts, r.totals(), ipcErr) {
		vals[name] = single(v)
	}
	if err := rep.setMetrics(perLayer, vals); err != nil {
		return err
	}
	rep.Extra = map[string]metricValue{"traced_passes": single(float64(n)).in("count")}
	if o.spans == "" {
		return nil
	}
	return tr.writeSpans(filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", r.w.name, o.seed)))
}
