package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/workload"
)

// workers is the sweep worker count and the number of closed-loop clients:
// the benchmark host has two CPUs, and GOMAXPROCS is pinned to match.
const workers = 2

// heldOut is left out of every draw. Its sampled task on the 8-way machine
// with Struct-Bounded fails ("representative window 6 measured nothing"),
// and a workload must not contain an operation that fails. The goldens
// still record every workload's output for it, the failure included.
const heldOut = "intx.gen07"

// benchWorkload is one load the benchmark runs. A sweep workload runs
// core.RunSweep over specs; a task workload has closed-loop clients submit
// one simulation per (program, config, policy), sampled when sample is set.
type benchWorkload struct {
	name     string
	input    string
	perSuite int // programs the seed draws from each suite

	specs []core.SeriesSpec // sweep workloads

	configs  []pipeline.Config    // task workloads
	policies []*selector.Selector // nil = singleton execution
	sample   *pipeline.SampleSpec // nil = full detail
}

func (w *benchWorkload) isSweep() bool { return w.specs != nil }

// taskSpecs are the runs of the two task workloads: {singleton,
// Struct-All, Struct-Bounded} on {reduced, baseline, 8-way}.
var (
	taskConfigs  = []pipeline.Config{pipeline.Reduced(), pipeline.Baseline(), pipeline.Width8()}
	taskPolicies = []*selector.Selector{nil, selector.StructAll(), selector.StructBounded()}
)

// profile-xcfg draws 6 programs per suite, on the small input, where the
// others draw 12: its four profiles make its work per program the
// heaviest, and a run needs several rounds for each program's best time
// to hold from run to run.
var workloads = []*benchWorkload{
	{
		name:     "sweep-fig6",
		input:    "small",
		perSuite: 12,
		specs:    fig6Specs(),
	},
	{
		name:     "profile-xcfg",
		input:    "small",
		perSuite: 6,
		specs:    xcfgSpecs(),
	},
	{
		name:     "timing-large",
		input:    "large",
		perSuite: 12,
		configs:  taskConfigs,
		policies: taskPolicies,
	},
	{
		name:     "sampled-rep",
		input:    "large",
		perSuite: 12,
		configs:  taskConfigs,
		policies: taskPolicies,
		sample:   &pipeline.SampleSpec{Mode: pipeline.SampleRepresentative, Interval: 1000, Window: 1000},
	},
}

// fig6Specs is the Fig 6 top and middle sweep in one: six policies on the
// reduced and on the fully-provisioned machine.
func fig6Specs() []core.SeriesSpec {
	var specs []core.SeriesSpec
	for _, cfg := range []pipeline.Config{pipeline.Reduced(), pipeline.Baseline()} {
		for _, sel := range []*selector.Selector{nil, selector.StructAll(), selector.StructNone(),
			selector.StructBounded(), selector.SlackProfile(), selector.SlackDynamic()} {
			specs = append(specs, core.SeriesSpec{Label: cfg.Name + "/" + policyName(sel), Cfg: cfg, Sel: sel})
		}
	}
	return specs
}

// xcfgSpecs is the Fig 9 top sweep: Slack-Profile on the reduced machine
// with profiles trained on four machine configurations.
func xcfgSpecs() []core.SeriesSpec {
	red := pipeline.Reduced()
	w2, w8, dm := pipeline.Width2(), pipeline.Width8(), pipeline.SmallDMem()
	return []core.SeriesSpec{
		{Label: "self-trained", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "cross 2-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w2},
		{Label: "cross 8-way", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &w8},
		{Label: "cross dmem/4", Cfg: red, Sel: selector.SlackProfile(), ProfCfg: &dm},
	}
}

func policyName(sel *selector.Selector) string {
	if sel == nil {
		return "singleton"
	}
	return sel.Name()
}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// draw picks perSuite programs from each suite for seed, in a seeded order.
// Programs are ranked by dynamic instructions on input. The perSuite/6
// largest of a suite are always drawn: they set the latency tail, which
// would otherwise swing with the seed. The rest are cut into equal strata
// by size and one program is drawn from each, so every seed draws the same
// mix of sizes and a pass costs about the same on every seed.
func draw(progs []program, input string, seed int64, perSuite int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for _, suite := range workload.Suites() {
		var ps []program
		for _, p := range progs {
			if p.suite == suite && p.name != heldOut {
				ps = append(ps, p)
			}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].instrs[input] != ps[j].instrs[input] {
				return ps[i].instrs[input] > ps[j].instrs[input]
			}
			return ps[i].name < ps[j].name
		})
		n := min(perSuite, len(ps))
		take := n / 6
		for _, p := range ps[:take] {
			out = append(out, p.name)
		}
		rest, k := ps[take:], n-take
		for g := 0; g < k; g++ {
			lo, hi := g*len(rest)/k, (g+1)*len(rest)/k
			out = append(out, rest[lo+rng.Intn(hi-lo)].name)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// task is one request of a task workload, or one series point of a sweep.
type task struct {
	prog    string
	req     string // "program/series", the golden key and span request id
	cfg     pipeline.Config
	sel     *selector.Selector
	profCfg pipeline.Config // sweeps: the configuration the profile is trained on
}

// tasks lists the workload's requests over names, program-major.
func (w *benchWorkload) tasks(names []string) []task {
	var out []task
	for _, n := range names {
		if w.isSweep() {
			for _, sp := range w.specs {
				t := task{prog: n, req: n + "/" + sp.Label, cfg: sp.Cfg, sel: sp.Sel, profCfg: sp.Cfg}
				if sp.ProfCfg != nil {
					t.profCfg = *sp.ProfCfg
				}
				out = append(out, t)
			}
			continue
		}
		for _, cfg := range w.configs {
			for _, sel := range w.policies {
				out = append(out, task{prog: n, req: n + "/" + cfg.Name + "/" + policyName(sel), cfg: cfg, sel: sel})
			}
		}
	}
	return out
}

// outcome is what one task produced: the two golden values (relative
// performance and coverage for sweeps, cycles and instructions for tasks)
// or an error, plus any invariant it broke.
type outcome struct {
	req     string
	vals    [2]string
	err     error
	broken  string  // invariant violation, "" if none
	sampled bool    // vals[0] is a sampled cycle estimate
	ms      float64 // task latency (task workloads)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

// setup prepares the drawn programs: through the shared bench cache for a
// sweep (which then finds them there), directly for a task workload.
// Programs that fail to prepare are missing from the map.
func (w *benchWorkload) setup(names []string) (map[string]*core.Bench, map[string]error) {
	benches := make(map[string]*core.Bench, len(names))
	errs := map[string]error{}
	for _, n := range names {
		wl := workload.Find(n)
		var b *core.Bench
		var err error
		if w.isSweep() {
			b, err = core.PrepareShared(wl, w.input)
		} else {
			b, err = core.Prepare(wl, w.input)
		}
		if err != nil {
			errs[n] = err
			continue
		}
		benches[n] = b
	}
	return benches, errs
}

// run executes the workload's work over the prepared programs and returns
// one outcome per task, in task order, plus the latencies a user waits on:
// one per task of a task workload, and the whole sweep's for a sweep.
func (w *benchWorkload) run(names []string, benches map[string]*core.Bench, prepErrs map[string]error) ([]outcome, []float64) {
	if w.isSweep() {
		return w.runSweep(names, prepErrs)
	}
	return w.runTasks(names, benches, prepErrs)
}

func (w *benchWorkload) runSweep(names []string, prepErrs map[string]error) ([]outcome, []float64) {
	t0 := time.Now()
	res, err := core.RunSweep(w.name, core.Options{
		Input: w.input, Workloads: names, Workers: workers,
	}, w.specs)
	ms := float64(time.Since(t0)) / 1e6
	outs := make([]outcome, 0, len(names)*len(w.specs))
	for _, t := range w.tasks(names) {
		o := outcome{req: t.req, err: err}
		if perr := prepErrs[t.prog]; perr != nil {
			o.err = perr
		}
		if o.err == nil {
			label := t.req[len(t.prog)+1:]
			perf, ok1 := res.Perf.Get(label).Values[t.prog]
			cov, ok2 := res.Coverage.Get(label).Values[t.prog]
			if !ok1 || !ok2 {
				o.err = fmt.Errorf("no result for %s", t.req)
			}
			o.vals = [2]string{fmtFloat(perf), fmtFloat(cov)}
		}
		outs = append(outs, o)
	}
	return outs, []float64{ms}
}

// runTasks has two closed-loop clients work through the task list: each
// client submits its next task only when its previous one has finished.
func (w *benchWorkload) runTasks(names []string, benches map[string]*core.Bench, prepErrs map[string]error) ([]outcome, []float64) {
	ts := w.tasks(names)
	outs := make([]outcome, len(ts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				t0 := time.Now()
				if b := benches[ts[i].prog]; b != nil {
					outs[i] = w.do(b, ts[i], nil)
				} else {
					outs[i] = outcome{req: ts[i].req, err: prepErrs[ts[i].prog]}
				}
				outs[i].ms = float64(time.Since(t0)) / 1e6
			}
		}()
	}
	wg.Wait()
	lat := make([]float64, len(outs))
	for i := range outs {
		lat[i] = outs[i].ms
	}
	return outs, lat
}

// do runs one task of a task workload: select, then the detailed or the
// sampled simulation. tr records a span around each call (nil = untraced).
func (w *benchWorkload) do(b *core.Bench, t task, tr *tracer) outcome {
	var chosen *minigraph.Selection
	if t.sel != nil {
		s := tr.begin("select", t.req)
		chosen = b.Select(t.sel, nil)
		tr.end(s, work{coverage: chosen.Coverage()})
	}
	if w.sample != nil {
		s := tr.begin("sample", t.req)
		st, rep, err := b.RunSampledReport(t.cfg, t.sel, chosen, *w.sample)
		tr.end(s, work{instrs: int64(len(b.Trace)), rep: rep})
		return taskOutcome(t.req, b, st, err, true)
	}
	var st *pipeline.Stats
	var err error
	s := tr.begin("run", t.req)
	if t.sel == nil {
		st, err = b.RunSingleton(t.cfg)
	} else {
		st, err = b.Run(t.cfg, t.sel, chosen)
	}
	tr.end(s, runWork(st))
	return taskOutcome(t.req, b, st, err, false)
}

// taskOutcome records a task's cycles and instructions, and for a detailed
// run checks that every emulated instruction committed.
func taskOutcome(req string, b *core.Bench, st *pipeline.Stats, err error, sampled bool) outcome {
	o := outcome{req: req, err: err, sampled: sampled}
	if err != nil {
		return o
	}
	o.vals = [2]string{strconv.FormatInt(st.Cycles, 10), strconv.FormatInt(st.Instrs, 10)}
	o.broken = detailedCheck(b, st, sampled)
	return o
}

// detailedCheck returns why a detailed run broke the commit invariant —
// every emulated instruction commits exactly once — or "" if it held.
func detailedCheck(b *core.Bench, st *pipeline.Stats, sampled bool) string {
	if sampled || st.Instrs == int64(len(b.Trace)) {
		return ""
	}
	return fmt.Sprintf("committed %d instructions, emulated %d", st.Instrs, len(b.Trace))
}
