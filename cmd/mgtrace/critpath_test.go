package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/critpath"
	"repro/internal/pipeline"
)

// The committed tiny trace (testdata/tiny.pipetrace.jsonl) is the CI smoke
// input: a 3-op handle with 2 cycles of induced serialization fed by two
// singletons. Its rendering is pinned by a golden so the smoke target's
// output stays meaningful.
func TestCritpathTinyGolden(t *testing.T) {
	uops, events, err := readTrace(filepath.Join("testdata", "tiny.pipetrace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pipeline.ConfigByName("reduced")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := critpath.Analyze(uops, events, critpath.ParamsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buckets[critpath.Serialization] != 2 {
		t.Errorf("tiny trace serialization bucket = %d, want 2", rep.Buckets[critpath.Serialization])
	}
	var out bytes.Buffer
	if err := critpath.WriteText(&out, "tiny.pipetrace.jsonl", rep, 5); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "critpath_tiny.golden.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/mgtrace -update` to create goldens)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("attribution rendering drifted from golden.\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

// The exports must round-trip: the JSON report parses back with the same
// bucket totals and the CSV carries one row per template.
func TestCritpathExports(t *testing.T) {
	uops, events, err := readTrace(filepath.Join("testdata", "tiny.pipetrace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := pipeline.ConfigByName("reduced")
	rep, err := critpath.Analyze(uops, events, critpath.ParamsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	js, csv := filepath.Join(dir, "a.json"), filepath.Join(dir, "a.csv")
	if err := exportCritpath(rep, js, csv); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		TotalCycles   int64            `json:"totalCycles"`
		BucketsByName map[string]int64 `json:"bucketsByName"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalCycles != rep.TotalCycles {
		t.Errorf("JSON totalCycles %d != %d", back.TotalCycles, rep.TotalCycles)
	}
	if back.BucketsByName["serialization"] != rep.Buckets[critpath.Serialization] {
		t.Errorf("JSON serialization %d != %d",
			back.BucketsByName["serialization"], rep.Buckets[critpath.Serialization])
	}
	rawCSV, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(rawCSV)), "\n")
	if len(lines) != 1+len(rep.Templates) {
		t.Errorf("CSV has %d lines, want header + %d templates", len(lines), len(rep.Templates))
	}
}

// Attribution over a real pipeline-generated trace must render without
// error and report a nonzero span.
func TestCritpathChain3(t *testing.T) {
	uops, events := chain3Trace(t)
	cfg, _ := pipeline.ConfigByName("reduced")
	rep, err := critpath.Analyze(uops, events, critpath.ParamsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles <= 0 || len(rep.Templates) == 0 {
		t.Fatalf("degenerate report over chain3 trace: %+v", rep)
	}
	var out bytes.Buffer
	if err := critpath.WriteText(&out, "chain3", rep, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "serialization scoreboard") {
		t.Error("rendering missing scoreboard section")
	}
}
