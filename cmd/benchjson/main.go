// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, tagging it with run metadata
// passed in from the environment (the tool itself never reads a clock or
// the repository — `make benchjson` supplies both) plus a fingerprint of
// the machine it ran on. When diffing, a baseline recorded on a different
// machine draws a warning (ns/op deltas then measure the hardware, not
// the code); -strict-host turns the warning into a failure.
//
// With -baseline it also diffs the fresh numbers against a previously
// committed document, prints per-benchmark ns/op, ns/instr and allocs/op
// deltas on stderr, and exits non-zero when any shared benchmark regressed by more
// than -max-regress in ns/op or grew allocs/op by more than
// -max-alloc-regress (the JSON is still written first, so the artifact
// survives a failing gate for inspection). The alloc gate only applies
// where both runs carry -benchmem columns.
//
// Usage:
//
//	go test -run NONE -bench . -benchmem ./... | benchjson -rev $(git rev-parse --short HEAD) -date $(date -u +%F)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/ledger"
)

// Benchmark is one parsed result line. Metrics holds the benchmark's own
// b.ReportMetric values by unit (the simulator benchmarks report ns/instr).
type Benchmark struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"nsPerOp"`
	BytesPerOp  int64              `json:"bytesPerOp"`  // -1 without -benchmem
	AllocsPerOp int64              `json:"allocsPerOp"` // -1 without -benchmem
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the output document. Host is the machine fingerprint of the run;
// a nil Host (documents from before the field existed) compares as
// unknown, not as a mismatch.
type Doc struct {
	Rev        string       `json:"rev"`
	Date       string       `json:"date"`
	Go         string       `json:"go"`
	Host       *ledger.Host `json:"host,omitempty"`
	Benchmarks []Benchmark  `json:"benchmarks"`
}

func main() {
	var (
		rev      = flag.String("rev", "unknown", "source revision the benchmarks ran at")
		date     = flag.String("date", "unknown", "run date (supplied by the caller)")
		baseline = flag.String("baseline", "", "prior benchjson document to diff against")
		maxReg   = flag.Float64("max-regress", 0.15, "ns/op regression vs -baseline that fails the run")
		maxAlloc = flag.Float64("max-alloc-regress", 0.25, "allocs/op growth vs -baseline that fails the run")
		strict   = flag.Bool("strict-host", false, "fail (instead of warn) when -baseline was recorded on a different machine")
	)
	flag.Parse()

	benches, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	benches = bestOf(benches)
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	host := ledger.CurrentHost()
	doc := Doc{Rev: *rev, Date: *date, Go: runtime.Version(), Host: &host, Benchmarks: benches}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline == "" {
		return
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baseline, err)
		os.Exit(1)
	}
	// Wall-clock benchmarks are only comparable on the same machine. Warn
	// on a cross-host baseline (the diff still prints — trends survive a
	// hardware change even if the gate threshold doesn't), fail under
	// -strict-host.
	if crossHost(base, host) {
		fmt.Fprintf(os.Stderr, "benchjson: WARNING: baseline recorded on a different machine\n  baseline: %s\n  current:  %s\n",
			base.Host.Summary(), host.Summary())
		if *strict {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL: -strict-host set — re-record the baseline on this machine")
			os.Exit(2)
		}
	}
	lines, regressions := diffDocs(doc, base, *maxReg, *maxAlloc)
	fmt.Fprintf(os.Stderr, "benchjson: vs baseline %s (rev %s)\n", *baseline, base.Rev)
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, "  "+l)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: %d benchmark(s) regressed (limits: +%.0f%% ns/op, +%.0f%% allocs/op): %s\n",
			len(regressions), *maxReg*100, *maxAlloc*100, strings.Join(regressions, ", "))
		os.Exit(2)
	}
}

// crossHost reports whether the baseline document was recorded on a
// different machine than cur. Baselines from before the host field
// existed compare as unknown, never as a mismatch.
func crossHost(base Doc, cur ledger.Host) bool {
	return base.Host != nil && !base.Host.SameMachine(cur)
}

// bestOf collapses repeated runs of the same benchmark (`go test -count N`)
// into one row keeping the fastest ns/op — the run least disturbed by
// scheduler noise, which is what a regression gate should compare.
func bestOf(benches []Benchmark) []Benchmark {
	byName := make(map[string]int)
	var out []Benchmark
	for _, b := range benches {
		i, seen := byName[b.Name]
		if !seen {
			byName[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		if b.NsPerOp < out[i].NsPerOp {
			out[i] = b
		}
	}
	return out
}

// benchKey normalizes a benchmark name for cross-run matching by dropping
// the -GOMAXPROCS suffix go test appends on multi-proc runs.
func benchKey(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// diffDocs compares cur against base benchmark by benchmark. It returns
// human-readable delta lines (in cur's order, then base-only leftovers) and
// the names of benchmarks whose ns/op regressed by more than tol or whose
// allocs/op grew by more than allocTol (suffixed "(allocs)"). The alloc
// gate applies only where both rows carry -benchmem data; growing from
// zero allocations is always a regression.
func diffDocs(cur, base Doc, tol, allocTol float64) (lines, regressions []string) {
	prior := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		prior[benchKey(b.Name)] = b
	}
	for _, b := range cur.Benchmarks {
		key := benchKey(b.Name)
		old, ok := prior[key]
		if !ok {
			lines = append(lines, fmt.Sprintf("%-44s %12.0f ns/op  (new)", key, b.NsPerOp))
			continue
		}
		delete(prior, key)
		pct := (b.NsPerOp - old.NsPerOp) / old.NsPerOp
		line := fmt.Sprintf("%-44s %12.0f -> %12.0f ns/op  %+6.1f%%",
			key, old.NsPerOp, b.NsPerOp, pct*100)
		if pct > tol {
			regressions = append(regressions, key)
		}
		if n, o := b.Metrics["ns/instr"], old.Metrics["ns/instr"]; n > 0 && o > 0 {
			line += fmt.Sprintf("  %7.1f -> %7.1f ns/instr  %+6.1f%%", o, n, (n-o)/o*100)
		}
		if b.AllocsPerOp >= 0 && old.AllocsPerOp >= 0 {
			line += fmt.Sprintf("  %6d -> %6d allocs/op", old.AllocsPerOp, b.AllocsPerOp)
			if allocsRegressed(old.AllocsPerOp, b.AllocsPerOp, allocTol) {
				regressions = append(regressions, key+" (allocs)")
			}
		}
		lines = append(lines, line)
	}
	for _, b := range base.Benchmarks {
		if _, left := prior[benchKey(b.Name)]; left {
			lines = append(lines, fmt.Sprintf("%-44s %12.0f ns/op  (gone)", benchKey(b.Name), b.NsPerOp))
		}
	}
	return lines, regressions
}

// allocsRegressed reports whether growing from old to new allocs/op
// exceeds tol. A benchmark that allocated nothing must stay at nothing:
// any growth from zero fails, since no ratio can express it.
func allocsRegressed(old, new int64, tol float64) bool {
	if old == 0 {
		return new > 0
	}
	return float64(new-old)/float64(old) > tol
}

// parseBench extracts benchmark result lines, ignoring everything else
// (ok/PASS lines, pkg headers, failures are the caller's problem).
func parseBench(sc *bufio.Scanner) ([]Benchmark, error) {
	var out []Benchmark
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// Name-N iters ns "ns/op" [bytes "B/op" allocs "allocs/op"]
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		b := Benchmark{Name: f[0], BytesPerOp: -1, AllocsPerOp: -1}
		var err error
		if b.Iters, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		if b.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch unit := f[i+1]; unit {
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
