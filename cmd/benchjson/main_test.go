package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ledger"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/pipeline
cpu: something
BenchmarkSimulatorSingleton-8   	     100	   1234567 ns/op	       345.4 ns/instr	    4096 B/op	      12 allocs/op
BenchmarkSimulatorMiniGraphs-8  	      50	   2345678 ns/op
PASS
ok  	repro/internal/pipeline	3.456s
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(benches))
	}
	b := benches[0]
	if b.Name != "BenchmarkSimulatorSingleton-8" || b.Iters != 100 ||
		b.NsPerOp != 1234567 || b.BytesPerOp != 4096 || b.AllocsPerOp != 12 {
		t.Errorf("first benchmark parsed wrong: %+v", b)
	}
	if benches[1].BytesPerOp != -1 || benches[1].AllocsPerOp != -1 {
		t.Errorf("missing -benchmem fields should be -1: %+v", benches[1])
	}
	// A benchmark's own metrics are kept per benchmark, by unit.
	if got := b.Metrics["ns/instr"]; got != 345.4 || len(b.Metrics) != 1 {
		t.Errorf("first benchmark's metrics = %v, want ns/instr 345.4", b.Metrics)
	}
	if benches[1].Metrics != nil {
		t.Errorf("benchmark without custom metrics got %v", benches[1].Metrics)
	}
}

// TestDiffDocsNsPerInstr: rows carrying ns/instr on both sides print its
// delta; the gate stays on ns/op.
func TestDiffDocsNsPerInstr(t *testing.T) {
	base := Doc{Rev: "old", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: -1, Metrics: map[string]float64{"ns/instr": 200}},
		{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: -1},
	}}
	cur := Doc{Rev: "new", Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 900, AllocsPerOp: -1, Metrics: map[string]float64{"ns/instr": 180}},
		{Name: "BenchmarkB-8", NsPerOp: 900, AllocsPerOp: -1, Metrics: map[string]float64{"ns/instr": 180}},
	}}
	lines, regressions := diffDocs(cur, base, 0.15, 0.25)
	if len(regressions) != 0 {
		t.Errorf("regressions = %v, want none", regressions)
	}
	if !strings.Contains(lines[0], "200.0 ->   180.0 ns/instr   -10.0%") {
		t.Errorf("ns/instr delta missing from line: %q", lines[0])
	}
	if strings.Contains(lines[1], "ns/instr") {
		t.Errorf("row without a baseline ns/instr should print no delta: %q", lines[1])
	}
}

// The committed baselines written by `make benchjson` must parse back and
// carry plausible contents — this is the validity check for the artifacts
// themselves, not their numbers.
func TestCommittedBaselineParses(t *testing.T) {
	for _, file := range []string{"BENCH_PR3.json", "BENCH_PR4.json", "BENCH_PR5.json", "BENCH_PR6.json"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatalf("%v (run `make benchjson` to regenerate the baseline)", err)
		}
		var doc Doc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if doc.Rev == "" || doc.Date == "" || doc.Go == "" {
			t.Errorf("%s: baseline missing metadata: %+v", file, doc)
		}
		if len(doc.Benchmarks) == 0 {
			t.Fatalf("%s: baseline carries no benchmarks", file)
		}
		for _, b := range doc.Benchmarks {
			if b.Name == "" || b.Iters <= 0 || b.NsPerOp <= 0 {
				t.Errorf("%s: implausible benchmark row: %+v", file, b)
			}
		}
	}
}

func TestBestOf(t *testing.T) {
	in := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 9},
		{Name: "BenchmarkB", NsPerOp: 500},
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 7},
		{Name: "BenchmarkA", NsPerOp: 1100, AllocsPerOp: 8},
	}
	out := bestOf(in)
	if len(out) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(out), out)
	}
	if out[0].Name != "BenchmarkA" || out[0].NsPerOp != 1000 || out[0].AllocsPerOp != 7 {
		t.Errorf("fastest BenchmarkA row not kept: %+v", out[0])
	}
	if out[1].Name != "BenchmarkB" || out[1].NsPerOp != 500 {
		t.Errorf("single-run benchmark mangled: %+v", out[1])
	}
}

func TestBenchKey(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":    "BenchmarkFoo",
		"BenchmarkFoo-16":   "BenchmarkFoo",
		"BenchmarkFoo":      "BenchmarkFoo",
		"BenchmarkFoo/x-2":  "BenchmarkFoo/x",
		"BenchmarkFoo-bar":  "BenchmarkFoo-bar",
		"BenchmarkFoo/a-b4": "BenchmarkFoo/a-b4",
	}
	for in, want := range cases {
		if got := benchKey(in); got != want {
			t.Errorf("benchKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCrossHost covers the baseline host check: same machine and legacy
// fingerprint-less baselines pass, a different machine is flagged, and
// GOMAXPROCS/Go-version drift alone never counts as a host change.
func TestCrossHost(t *testing.T) {
	cur := ledger.CurrentHost()
	if crossHost(Doc{}, cur) {
		t.Error("baseline without a host fingerprint must not mismatch")
	}
	same := cur
	same.GOMAXPROCS++
	same.Go = "go0.0"
	if crossHost(Doc{Host: &same}, cur) {
		t.Error("GOMAXPROCS/Go drift flagged as a host change")
	}
	other := cur
	other.Hostname = cur.Hostname + "-other"
	if !crossHost(Doc{Host: &other}, cur) {
		t.Error("different hostname not flagged")
	}
}

func TestDiffDocs(t *testing.T) {
	base := Doc{Rev: "old", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: -1},
		{Name: "BenchmarkB", NsPerOp: 2000, AllocsPerOp: -1},
		{Name: "BenchmarkGone", NsPerOp: 500, AllocsPerOp: -1},
	}}
	cur := Doc{Rev: "new", Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 1100, AllocsPerOp: -1},  // +10%: within tolerance
		{Name: "BenchmarkB-8", NsPerOp: 2400, AllocsPerOp: -1},  // +20%: regression
		{Name: "BenchmarkNew-8", NsPerOp: 300, AllocsPerOp: -1}, // no baseline: never fails
	}}
	lines, regressions := diffDocs(cur, base, 0.15, 0.25)
	if len(lines) != 4 {
		t.Fatalf("got %d delta lines, want 4:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if len(regressions) != 1 || regressions[0] != "BenchmarkB" {
		t.Errorf("regressions = %v, want [BenchmarkB]", regressions)
	}

	// An improvement (negative delta) is never a regression, whatever tol.
	cur.Benchmarks[0].NsPerOp = 900
	cur.Benchmarks[1].NsPerOp = 100
	if _, reg := diffDocs(cur, base, 0, 0); len(reg) != 0 {
		t.Errorf("improvement flagged as regression: %v", reg)
	}
}

func TestDiffDocsAllocGate(t *testing.T) {
	base := Doc{Rev: "old", Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkZero", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "BenchmarkNoMem", NsPerOp: 1000, AllocsPerOp: -1},
	}}
	cur := Doc{Rev: "new", Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 1000, AllocsPerOp: 120},    // +20%: within tolerance
		{Name: "BenchmarkB-8", NsPerOp: 1000, AllocsPerOp: 130},    // +30%: regression
		{Name: "BenchmarkZero-8", NsPerOp: 1000, AllocsPerOp: 1},   // 0 -> 1: regression
		{Name: "BenchmarkNoMem-8", NsPerOp: 1000, AllocsPerOp: 50}, // no baseline data: ungated
	}}
	lines, regressions := diffDocs(cur, base, 0.15, 0.25)
	want := []string{"BenchmarkB (allocs)", "BenchmarkZero (allocs)"}
	if strings.Join(regressions, ";") != strings.Join(want, ";") {
		t.Errorf("regressions = %v, want %v", regressions, want)
	}
	// Rows with -benchmem data on both sides carry the alloc delta.
	if !strings.Contains(lines[0], "100 ->    120 allocs/op") {
		t.Errorf("alloc delta missing from line: %q", lines[0])
	}
	if strings.Contains(lines[3], "allocs/op") {
		t.Errorf("row without baseline -benchmem data should not print an alloc delta: %q", lines[3])
	}

	// Shrinking allocs is never a regression, and zero staying zero is fine.
	cur.Benchmarks[0].AllocsPerOp = 100
	cur.Benchmarks[1].AllocsPerOp = 10
	cur.Benchmarks[2].AllocsPerOp = 0
	if _, reg := diffDocs(cur, base, 0.15, 0); len(reg) != 0 {
		t.Errorf("alloc improvement flagged as regression: %v", reg)
	}
}
