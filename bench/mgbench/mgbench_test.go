package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func loadTestGoldens(t *testing.T) *goldens {
	t.Helper()
	g, err := loadGoldens("../golden")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the tests
// compare against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatches(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, mgbench has %v", names, workloadNames())
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = c.defs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s = %v, mgbench prints %v", c.kind, got, want)
		}
	}
}

// TestWorkloadsTiny runs every workload on one program per suite, one
// measured pass, untraced and traced, and checks the outputs against the
// goldens and the printed result against BENCHMARK.json.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	g := loadTestGoldens(t)
	spec := loadBenchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := execute(w, g, runOpts{seed: 1, perSuite: 1, trace: traced})
				if err != nil {
					t.Fatal(err)
				}
				if rep.TasksFailed != 0 || rep.Tasks == 0 {
					t.Fatalf("trace %v: %d of %d tasks failed: %v", traced, rep.TasksFailed, rep.Tasks, rep.Failures)
				}
				var stdout, stderr bytes.Buffer
				if err := rep.print(&stderr, &stdout); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted != rep.Tasks || res.Failed != 0 {
					t.Errorf("trace %v: result line %+v", traced, res)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics printed, BENCHMARK.json has %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %v: metric %s printed as %+v (present %v), want unit %q", traced, m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(stderr.String(), m.Name) {
						t.Errorf("trace %v: table lacks %s", traced, m.Name)
					}
				}
				if traced {
					checkShares(t, rep)
				}
			}
		})
	}
}

// checkShares checks that the layer shares sum to 100 and that the layers
// measured no more CPU than the pass that contains them.
func checkShares(t *testing.T, rep *report) {
	t.Helper()
	sum := rep.Metrics["harness.share"].Value
	if sum < 0 {
		t.Errorf("harness share %v < 0: layers measured more CPU than the pass", sum)
	}
	for _, ln := range layerNames {
		sum += rep.Metrics[ln.metric].Value
	}
	if sum < 99 || sum > 101 {
		t.Errorf("layer shares sum to %v, want 100 ± 1", sum)
	}
}

// TestSpansWellFormed replays a pass of each workload and checks every
// span: its parent exists and encloses it, and its self time (its duration
// less its children's) is not negative. The Chrome trace written from the
// spans must pass the checks mgtrace -spans applies.
func TestSpansWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every workload")
	}
	g := loadTestGoldens(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			names := draw(g.programs, w.input, 1, 1)
			tr := newTracer()
			outs, benches := w.tracedPass(names, tr)
			if w.sample != nil {
				outs = append(outs, w.referencePass(names, benches, tr)...)
			}
			if len(outs) == 0 {
				t.Fatal("no outcomes")
			}
			byID := map[int]*span{}
			children := map[int]time.Duration{}
			for i := range tr.spans {
				s := &tr.spans[i]
				byID[s.id] = s
				if s.end < s.start {
					t.Errorf("span %d %s ends before it starts", s.id, s.name)
				}
				if s.req == "" {
					t.Errorf("span %d %s has no request id", s.id, s.name)
				}
				if s.parent == 0 {
					continue
				}
				p := byID[s.parent]
				if p == nil {
					t.Fatalf("span %d %s: parent %d missing", s.id, s.name, s.parent)
				}
				if s.start < p.start || s.end > p.end {
					t.Errorf("span %d %s [%v,%v] outside parent %s [%v,%v]", s.id, s.name, s.start, s.end, p.name, p.start, p.end)
				}
				children[s.parent] += s.end - s.start
			}
			for _, s := range tr.spans {
				if self := s.end - s.start - children[s.id]; self < 0 {
					t.Errorf("span %d %s: self time %v < 0", s.id, s.name, self)
				}
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := tr.writeSpans(path); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ct, err := metrics.ReadChromeTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := metrics.ValidateChromeTrace(ct); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDraw(t *testing.T) {
	g := loadTestGoldens(t)
	for _, w := range workloads {
		a := draw(g.programs, w.input, 7, w.perSuite)
		if b := draw(g.programs, w.input, 7, w.perSuite); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: draw is not deterministic: %v vs %v", w.name, a, b)
		}
		if c := draw(g.programs, w.input, 8, w.perSuite); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 draw the same programs", w.name)
		}
		suiteOf := map[string]string{}
		for _, p := range g.programs {
			suiteOf[p.name] = p.suite
		}
		count := map[string]int{}
		seen := map[string]bool{}
		for _, n := range a {
			if n == heldOut || seen[n] {
				t.Errorf("%s: draw has %s (held out or repeated)", w.name, n)
			}
			seen[n] = true
			count[suiteOf[n]]++
		}
		for s, c := range count {
			if c != w.perSuite {
				t.Errorf("%s: %s: %d programs drawn, want %d", w.name, s, c, w.perSuite)
			}
		}
	}
}

func TestBestSumsEachProgramsLowest(t *testing.T) {
	r := &runner{names: []string{"a", "b"}, rounds: [][]sample{
		{{wall: 3, lat: []float64{30, 1}}, {wall: 5, lat: []float64{50}}},
		{{wall: 2, lat: []float64{20, 2}}, {wall: 7, lat: []float64{70}}},
		{{wall: 4, lat: []float64{40, 3}}, {wall: 6, lat: []float64{60}}},
	}}
	m := r.best(func(s sample) float64 { return s.wall })
	if m.Value != 2+5 || m.N != 3 || m.Q1 != 8 || m.Q3 != 10 {
		t.Errorf("best = %+v, want value 7 over round totals 8, 9, 10", m)
	}
	if got, want := r.latencies(), []float64{30, 1, 50, 20, 2, 70, 40, 3, 60}; !reflect.DeepEqual(got, want) {
		t.Errorf("latencies = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(v); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}
