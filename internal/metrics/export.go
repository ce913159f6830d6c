package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// This file exports recorded spans in two formats:
//
//   - JSONL: one SpanRecord object per line, sorted by (start, id) — the
//     machine-readable form for ad-hoc analysis.
//   - Chrome trace-event JSON: matched B/E duration events, one pid per
//     sweep and one tid per worker, plus process/thread-name metadata —
//     opens directly in Perfetto or chrome://tracing.

// TraceEvent is one Chrome trace-event record (the subset we emit/read).
type TraceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the trace-event file container (JSON Object Format).
type ChromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// WriteSpansJSONL writes one JSON object per span, sorted by (start, id).
func WriteSpansJSONL(w io.Writer, spans []SpanRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTrace writes spans as a Chrome trace-event file: a B/E event
// pair per span plus process_name/thread_name metadata. Events are ordered
// by timestamp (ties: E before B so back-to-back spans close cleanly;
// among simultaneous Bs the longer — enclosing — span opens first).
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	type ev struct {
		TraceEvent
		end   int64 // span end (B) or start (E), for tie-breaks
		isEnd bool
	}
	evs := make([]ev, 0, 2*len(spans))
	pids := map[int]bool{}
	tids := map[[2]int]bool{}
	for _, s := range spans {
		args := make(map[string]string, len(s.Attrs)+1)
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		if s.CPUNanos > 0 {
			args["cpu_ms"] = strconv.FormatFloat(float64(s.CPUNanos)/1e6, 'f', 3, 64)
		}
		pids[s.Pid] = true
		tids[[2]int{s.Pid, s.Tid}] = true
		evs = append(evs,
			ev{TraceEvent{Name: s.Name, Ph: "B", Ts: float64(s.Start) / 1e3, Pid: s.Pid, Tid: s.Tid, Args: args}, s.End, false},
			ev{TraceEvent{Name: s.Name, Ph: "E", Ts: float64(s.End) / 1e3, Pid: s.Pid, Tid: s.Tid}, s.Start, true})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.isEnd != b.isEnd {
			return a.isEnd // E before B at the same timestamp
		}
		if !a.isEnd {
			return a.end > b.end // longer span opens first
		}
		return a.end > b.end // inner span (later start) closes first
	})

	tr := ChromeTrace{DisplayTimeUnit: "ms"}
	// Metadata first: name each sweep's process row and worker thread row.
	pidList := make([]int, 0, len(pids))
	for p := range pids {
		pidList = append(pidList, p)
	}
	sort.Ints(pidList)
	for _, p := range pidList {
		name := "main"
		if p > 0 {
			name = fmt.Sprintf("sweep-%d", p)
		}
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: "process_name", Ph: "M", Pid: p, Args: map[string]string{"name": name}})
	}
	tidList := make([][2]int, 0, len(tids))
	for t := range tids {
		tidList = append(tidList, t)
	}
	sort.Slice(tidList, func(i, j int) bool {
		if tidList[i][0] != tidList[j][0] {
			return tidList[i][0] < tidList[j][0]
		}
		return tidList[i][1] < tidList[j][1]
	})
	for _, t := range tidList {
		name := "orchestrator"
		if t[1] > 0 {
			name = fmt.Sprintf("worker-%d", t[1]-1)
		}
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: t[0], Tid: t[1], Args: map[string]string{"name": name}})
	}
	for _, e := range evs {
		tr.TraceEvents = append(tr.TraceEvents, e.TraceEvent)
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&tr); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadChromeTrace parses a trace-event file written by WriteChromeTrace.
func ReadChromeTrace(r io.Reader) (*ChromeTrace, error) {
	var tr ChromeTrace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	return &tr, nil
}

// ValidateChromeTrace checks the structural invariants the exporter
// guarantees: non-decreasing timestamps in file order, and per-(pid, tid)
// properly nested B/E pairs with matching names.
func ValidateChromeTrace(tr *ChromeTrace) error {
	last := -1.0
	stacks := map[[2]int][]string{}
	for i, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "B":
			if e.Ts < last {
				return fmt.Errorf("event %d (%s): ts %v before previous %v", i, e.Name, e.Ts, last)
			}
			last = e.Ts
			k := [2]int{e.Pid, e.Tid}
			stacks[k] = append(stacks[k], e.Name)
		case "E":
			if e.Ts < last {
				return fmt.Errorf("event %d (%s): ts %v before previous %v", i, e.Name, e.Ts, last)
			}
			last = e.Ts
			k := [2]int{e.Pid, e.Tid}
			st := stacks[k]
			if len(st) == 0 {
				return fmt.Errorf("event %d: E %q on pid %d tid %d with no open span", i, e.Name, e.Pid, e.Tid)
			}
			if top := st[len(st)-1]; top != e.Name {
				return fmt.Errorf("event %d: E %q does not match open span %q (pid %d tid %d)", i, e.Name, top, e.Pid, e.Tid)
			}
			stacks[k] = st[:len(st)-1]
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("pid %d tid %d: %d unclosed span(s), first %q", k[0], k[1], len(st), st[0])
		}
	}
	return nil
}

// WriteTraceFiles writes the tracer's spans to path in Chrome trace-event
// format and to path+".spans.jsonl" as JSONL. It is the -trace-out
// implementation shared by the driver commands; returns the JSONL path.
func WriteTraceFiles(path string, t *Tracer) (string, error) {
	spans := t.Spans()
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = WriteChromeTrace(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	jsonl := path + ".spans.jsonl"
	f, err = os.Create(jsonl)
	if err != nil {
		return "", err
	}
	err = WriteSpansJSONL(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return jsonl, err
}
