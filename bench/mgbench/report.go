package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names a metric and its unit. The lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"task_ms_p50", "ms"},
	{"task_ms_p90", "ms"},
	{"peak_mem_mb", "MB"},
	{"alloc_mb", "MB"},
}

var perLayer = []metricDef{
	{"core.prepare.calls", "count"},
	{"core.prepare.cpu_ms", "ms"},
	{"core.prepare.ns_per_instr", "ns/instr"},
	{"core.prepare.share", "%"},
	{"slack.profile.calls", "count"},
	{"slack.profile.share", "%"},
	{"slack.profile.cost_x_run", "x"},
	{"slack.profile.alloc_b_per_instr", "B/instr"},
	{"selector.select.calls", "count"},
	{"selector.select.us_per_call", "us"},
	{"selector.select.coverage", "%"},
	{"selector.select.share", "%"},
	{"pipeline.run.calls", "count"},
	{"pipeline.run.cpu_s", "s"},
	{"pipeline.run.ns_per_instr", "ns/instr"},
	{"pipeline.run.ns_per_cycle", "ns/cycle"},
	{"pipeline.run.alloc_b_per_run", "B"},
	{"pipeline.run.share", "%"},
	{"pipeline.run.sim_instrs", "count"},
	{"pipeline.run.sim_cycles", "count"},
	{"pipeline.stage.fetch.share", "%"},
	{"pipeline.stage.rename.share", "%"},
	{"pipeline.stage.issue.share", "%"},
	{"pipeline.stage.execute.share", "%"},
	{"pipeline.stage.commit.share", "%"},
	{"pipeline.stage.advance.share", "%"},
	{"pipeline.stage.profile_fold.share", "%"},
	{"runtime.gc.share", "%"},
	{"pipeline.sample.calls", "count"},
	{"pipeline.sample.share", "%"},
	{"pipeline.sample.detailed_frac", "%"},
	{"pipeline.sample.windows", "count"},
	{"pipeline.sample.speedup", "x"},
	{"pipeline.sample.ipc_err_pct", "%"},
	{"simcache.results.misses", "count"},
	{"simcache.results.hit_ratio", "%"},
	{"simcache.benches.misses", "count"},
	{"core.sweep.overhead_cpu_s", "s"},
	{"core.sweep.parallel_eff", "%"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "%"},
	{"harness.share", "%"},
	{"trace.overhead_pct", "%"},
}

// metricValue is a reported metric: its value (a median where it has
// samples), unit, and the quartiles and count of those samples.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reports the median of samples with their quartiles.
func summarize(samples []float64) metricValue {
	q1, q3 := quartiles(samples)
	return metricValue{Value: median(samples), Q1: q1, Q3: q3, N: len(samples)}
}

// single reports a value that is not a median of samples.
func single(v float64) metricValue {
	return metricValue{Value: v, Q1: v, Q3: v, N: 1}
}

// scaled multiplies the value and its quartiles by f.
func (m metricValue) scaled(f float64) metricValue {
	m.Value, m.Q1, m.Q3 = m.Value*f, m.Q1*f, m.Q3*f
	return m
}

func (m metricValue) in(unit string) metricValue {
	m.Unit = unit
	return m
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m
	}
	s := sorted(v)
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// report is one workload run's result.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       bool                   `json:"trace"`
	Programs    []string               `json:"programs"`
	Passes      int                    `json:"passes"`
	Metrics     map[string]metricValue `json:"metrics"`
	Tasks       int                    `json:"tasks"`
	TasksFailed int                    `json:"tasks_failed"`
	Failures    []string               `json:"failures,omitempty"`
	// Extra holds figures outside the metric list of this mode: the
	// latency tail, the sampled accuracy, the traced pass count.
	Extra map[string]metricValue `json:"extra,omitempty"`

	defs []metricDef
}

// setMetrics stores the value of every metric of defs, with its unit.
func (r *report) setMetrics(defs []metricDef, vals map[string]metricValue) error {
	r.defs = defs
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("no value for metric %s", d.name)
		}
		r.Metrics[d.name] = m.in(d.unit)
	}
	return nil
}

// print writes the readable table to tw and the two JSON lines to jw: the
// full report, then the result line (value and unit of each metric).
func (r *report) print(tw, jw io.Writer) error {
	fmt.Fprintf(tw, "mgbench %s seed %d: %d passes, %d tasks, %d failed\n",
		r.Workload, r.Seed, r.Passes, r.Tasks, r.TasksFailed)
	for _, f := range r.Failures {
		fmt.Fprintf(tw, "  FAIL %s\n", f)
	}
	row := func(name string, m metricValue) {
		fmt.Fprintf(tw, "  %-34s %14.6g %-9s q1 %-12.6g q3 %-12.6g n %d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	for _, d := range r.defs {
		row(d.name, r.Metrics[d.name])
	}
	var extra []string
	for k := range r.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		row(k, r.Extra[k])
	}
	if r.Trace {
		fmt.Fprintf(tw, "  layer shares of traced CPU: %s\n", r.shareLine())
	}

	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.TasksFailed == 0 && r.Tasks > 0, r.Tasks, r.TasksFailed, map[string]valueUnit{}}
	for _, d := range r.defs {
		res.Metrics[d.name] = valueUnit{r.Metrics[d.name].Value, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(jw, "%s\n%s\n", full, line)
	return err
}

func (r *report) shareLine() string {
	var parts []string
	for _, ln := range layerNames {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", ln.span, r.Metrics[ln.metric].Value))
	}
	parts = append(parts, fmt.Sprintf("harness %.1f%%", r.Metrics["harness.share"].Value))
	return strings.Join(parts, ", ")
}
