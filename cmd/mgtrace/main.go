// Command mgtrace renders the simulator's observability output: pipetrace
// files become text pipeline diagrams (one row per uop, one column per
// cycle, in the style of gem5's O3 pipeline viewer), and interval files
// become summaries of the run's trouble spots — top stall windows,
// coverage dips, and Slack-Dynamic disable storms.
//
// Usage:
//
//	mgtrace -trace run.pipetrace.bin [-start seq] [-count n] [-cols n]
//	mgtrace -trace run.pipetrace.bin -window 12000:13000
//	mgtrace -trace run.pipetrace.bin -range 500000:500200
//	mgtrace -summary run.intervals.jsonl [-top k] [-window a:b]
//	mgtrace -csv run.intervals.jsonl > run.csv
//	mgtrace -critpath run.pipetrace.bin [-config reduced] [-top k] [-window a:b] [-attribjson f] [-attribcsv f]
//	mgtrace -spans sweep.trace
//	mgtrace -tojsonl run.pipetrace.bin > run.pipetrace.jsonl
//
// Runs traced with -pipetrace write the binary encoding; the -tojsonl mode
// converts it to JSONL on stdout. Pipetrace inputs (-trace, -critpath) may
// be either; the format is auto-detected.
//
// Windowed queries: -window a:b selects the records whose index cycle
// (commit cycle, or last stage reached for squashed uops) lies in [a, b];
// -range a:b selects records by 0-based stream ordinal. Both decode the
// trace in one pass and keep only the selected records; -range stops at
// the last record it selects.
//
// The -spans mode validates a Chrome trace-event file produced by the
// -trace-out flag of mgreport/mgsim/mgselect (matched B/E pairs, monotonic
// timestamps) and prints a per-span-name duration summary.
//
// The -critpath mode runs the cycle-loss attribution engine
// (internal/critpath) over a pipetrace: it walks the critical path
// backwards through last-arriving edges and prints where the cycles went
// (inherent dataflow, mini-graph serialization, cache misses, branch
// mispredictions, structural stalls, replays), the per-template
// serialization scoreboard, and the worst static mini-graph sites.
// -config names the machine configuration the trace was produced under.
// With -window a:b the walk is bounded to the uops committing inside the
// window (edges crossing the window entry are clipped as boundary state);
// the full trace is still read, because exact dependence reconstruction
// needs the complete rename history.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/critpath"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "pipetrace file to render as a stage diagram")
		start     = flag.Int64("start", 0, "first uop sequence number to render")
		count     = flag.Int("count", 64, "max uop rows to render")
		cols      = flag.Int("cols", 160, "max diagram columns (cycles)")
		summary   = flag.String("summary", "", "interval JSONL file to summarize")
		top       = flag.Int("top", 5, "how many stall windows / coverage dips / storms to list")
		csvFile   = flag.String("csv", "", "interval JSONL file to convert to CSV on stdout")
		critFile  = flag.String("critpath", "", "pipetrace file to run cycle-loss attribution on")
		cfgName   = flag.String("config", "reduced", "machine configuration the trace was produced under")
		attribJS  = flag.String("attribjson", "", "also write the attribution report as JSON to this file")
		attribCSV = flag.String("attribcsv", "", "also write the serialization scoreboard as CSV to this file")
		spansFile = flag.String("spans", "", "Chrome trace file (from -trace-out) to validate and summarize")
		toJSONL   = flag.String("tojsonl", "", "binary pipetrace file to convert to JSONL on stdout")
		windowStr = flag.String("window", "", "cycle window a:b — restrict -trace/-summary/-critpath to it")
		rangeStr  = flag.String("range", "", "record range a:b (0-based stream ordinals) — restrict -trace to it")
	)
	flag.Parse()
	if *windowStr != "" && *rangeStr != "" {
		fail(fmt.Errorf("-window and -range are mutually exclusive"))
	}

	did := false
	if *traceFile != "" {
		did = true
		uops, events, desc, err := queryTrace(*traceFile, *windowStr, *rangeStr)
		if err != nil {
			fail(err)
		}
		if desc != "" {
			fmt.Printf("%s: %s -> %d uops, %d events\n", *traceFile, desc, len(uops), len(events))
		}
		if err := renderTrace(os.Stdout, uops, events, *start, *count, *cols); err != nil {
			fail(err)
		}
	}
	if *summary != "" {
		did = true
		ivs, err := readIntervals(*summary)
		if err != nil {
			fail(err)
		}
		name := *summary
		if *windowStr != "" {
			a, b, err := parseSpan(*windowStr)
			if err != nil {
				fail(err)
			}
			ivs = windowIntervals(ivs, a, b)
			name = fmt.Sprintf("%s [window %d:%d]", name, a, b)
		}
		summarizeIntervals(os.Stdout, name, ivs, *top)
	}
	if *csvFile != "" {
		did = true
		ivs, err := readIntervals(*csvFile)
		if err != nil {
			fail(err)
		}
		if err := obs.WriteIntervalsCSV(os.Stdout, ivs); err != nil {
			fail(err)
		}
	}
	if *critFile != "" {
		did = true
		if *rangeStr != "" {
			fail(fmt.Errorf("-critpath takes -window (commit cycles), not -range: record ordinals don't bound an attribution"))
		}
		// The machine the trace was produced under gives the walk its
		// front-end depth and width.
		cfg, err := pipeline.ConfigByName(*cfgName)
		if err != nil {
			fail(err)
		}
		uops, events, err := readTrace(*critFile)
		if err != nil {
			fail(err)
		}
		var win *critpath.Window
		if *windowStr != "" {
			a, b, err := parseSpan(*windowStr)
			if err != nil {
				fail(err)
			}
			win = &critpath.Window{Start: a, End: b}
		}
		rep, err := critpath.AnalyzeWindow(uops, events, critpath.ParamsFor(cfg), win)
		if err != nil {
			fail(err)
		}
		if err := critpath.WriteText(os.Stdout, *critFile, rep, *top); err != nil {
			fail(err)
		}
		if err := exportCritpath(rep, *attribJS, *attribCSV); err != nil {
			fail(err)
		}
	}
	if *spansFile != "" {
		did = true
		if err := summarizeSpans(os.Stdout, *spansFile); err != nil {
			fail(err)
		}
	}
	if *toJSONL != "" {
		did = true
		f, err := os.Open(*toJSONL)
		if err != nil {
			fail(err)
		}
		err = obs.ConvertPipetrace(f, os.Stdout)
		f.Close()
		if err != nil {
			fail(err)
		}
	}
	if !did {
		fmt.Fprintln(os.Stderr, "mgtrace: one of -trace, -summary, -csv, -critpath, -spans, -tojsonl required")
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mgtrace:", err)
	os.Exit(1)
}

// readTrace reads a whole pipetrace. An empty trace is an error: every
// caller is about to render or analyze records, and a silently empty
// result would let a CI smoke leg pass on a broken trace.
func readTrace(path string) ([]obs.UopTrace, []obs.TraceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	uops, events, err := obs.ReadPipetrace(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(uops) == 0 && len(events) == 0 {
		return nil, nil, fmt.Errorf("%s: empty pipetrace (no records)", path)
	}
	return uops, events, nil
}

// parseSpan parses "a:b" into inclusive int64 bounds.
func parseSpan(s string) (int64, int64, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("bad span %q: want start:end", s)
	}
	a, err1 := strconv.ParseInt(s[:i], 10, 64)
	b, err2 := strconv.ParseInt(s[i+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad span %q: want start:end", s)
	}
	if a > b {
		return 0, 0, fmt.Errorf("bad span %q: start after end", s)
	}
	return a, b, nil
}

// queryTrace reads a pipetrace, restricted to a cycle window or record
// range when given. desc labels the query ("" for a full read).
func queryTrace(path, window, rng string) (uops []obs.UopTrace, events []obs.TraceEvent, desc string, err error) {
	if window == "" && rng == "" {
		uops, events, err = readTrace(path)
		return uops, events, "", err
	}
	read, kind, span := obs.ReadPipetraceWindow, "window", window
	if window == "" {
		read, kind, span = obs.ReadPipetraceRange, "range", rng
	}
	a, b, err := parseSpan(span)
	if err != nil {
		return nil, nil, "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, "", err
	}
	defer f.Close()
	if uops, events, err = read(f, a, b); err != nil {
		return nil, nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return uops, events, fmt.Sprintf("%s %d:%d", kind, a, b), nil
}

// windowIntervals keeps the intervals overlapping cycle window [a, b].
func windowIntervals(ivs []obs.Interval, a, b int64) []obs.Interval {
	var out []obs.Interval
	for _, iv := range ivs {
		lo := iv.Cycle - iv.Cycles + 1
		if lo <= b && iv.Cycle >= a {
			out = append(out, iv)
		}
	}
	return out
}

func readIntervals(path string) ([]obs.Interval, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadIntervals(f)
}
