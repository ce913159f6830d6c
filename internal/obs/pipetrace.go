package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// UopTrace is one pipetrace record: the stage timestamps of a single
// committed or squashed uop. Cycles are absolute run cycles; -1 marks a
// stage the uop never reached (e.g. Issue of a uop squashed in the fetch
// queue, Commit of any squashed uop).
//
// The record layout is the stable on-disk schema (see
// testdata/pipetrace.golden.jsonl); add fields only at the end.
type UopTrace struct {
	Type   string `json:"t"`      // always "uop"
	Seq    int64  `json:"seq"`    // machine sequence number
	Static int    `json:"static"` // static index of the (first) instruction
	Kind   string `json:"kind"`   // "singleton", "handle", or "ovh-jump"
	Op     string `json:"op"`     // mnemonic of the (first) instruction
	N      int    `json:"n"`      // architectural instructions carried (0 for overhead jumps)

	Fetch  int64 `json:"fetch"`
	Rename int64 `json:"rename"`
	Issue  int64 `json:"issue"`
	Done   int64 `json:"done"`  // all results produced (commit-eligible)
	Ready  int64 `json:"ready"` // register output on the bypass network (writers)
	Commit int64 `json:"commit"`

	Replays  int  `json:"replays"` // issue attempts squashed by missed-load wakeups
	Mispred  bool `json:"mispred"`
	Squashed bool `json:"squashed"`

	// Dependence and serialization fields (appended for the critical-path
	// attribution engine, see internal/critpath; absent in older traces and
	// decoded as zero values — analyzers must treat such traces as lacking
	// dependence information).
	Dst    int    `json:"dst"`            // architectural output register, -1 if none
	Srcs   []int  `json:"srcs,omitempty"` // architectural source registers (external inputs for handles)
	Tmpl   int    `json:"tmpl"`           // mini-graph template id, -1 for non-handles
	Mem    int    `json:"mem"`            // 0 none, 1 load, 2 store (the handle's single memory op)
	Addr   uint32 `json:"addr"`           // memory effective address, 0 when Mem == 0
	SerLat int64  `json:"serlat"`         // intra-handle serialization delay on completion (cycles)
	SerOut int64  `json:"serout"`         // intra-handle serialization delay on the register output
	MemLat int64  `json:"mlat"`           // load latency beyond the L1-hit path (cache-miss cycles)
	SerExt bool   `json:"serext"`         // issued data-bound on a serializing external input
}

// Memory-op kinds for UopTrace.Mem.
const (
	MemNone  = 0
	MemLoad  = 1
	MemStore = 2
)

// HasDeps reports whether a parsed trace carries the dependence fields:
// traces written before the schema gained them decode with Tmpl == 0 on
// every record, while the current writer emits -1 for non-handles.
func HasDeps(uops []UopTrace) bool {
	for i := range uops {
		if uops[i].Tmpl != 0 || uops[i].Dst != 0 || len(uops[i].Srcs) > 0 {
			return true
		}
	}
	return false
}

// IndexCycle returns the cycle a record is windowed by: the commit cycle
// for committed uops, and the last stage the uop reached for squashed ones
// (their commit is -1). Window reads and the flight recorder's window
// filter both use it, so they agree on which records a window holds.
func (u *UopTrace) IndexCycle() int64 {
	if u.Commit >= 0 {
		return u.Commit
	}
	c := int64(0)
	for _, t := range [...]int64{u.Fetch, u.Rename, u.Issue, u.Done, u.Ready} {
		if t > c {
			c = t
		}
	}
	return c
}

// Trace event kinds.
const (
	EvFlush    = "flush"    // memory-ordering violation pipeline flush
	EvDisable  = "disable"  // Slack-Dynamic template disable
	EvReenable = "reenable" // Slack-Dynamic template re-enable (resurrection)
)

// TraceEvent is a non-uop pipeline event. Template is -1 except for
// disable/reenable; Seq is -1 except for flushes (the violating load).
type TraceEvent struct {
	Type     string `json:"t"` // always "ev"
	Cycle    int64  `json:"cycle"`
	Ev       string `json:"ev"`
	Template int    `json:"template"`
	Seq      int64  `json:"seq"`
}

// Pipetrace streams uop records and events, in the binary encoding of
// binpipe.go (NewBinaryPipetrace), which traced runs write, or as JSONL
// (NewPipetrace), which ConvertPipetrace writes. Write errors are sticky:
// the first one is retained and reported by Flush, and later writes become
// no-ops (the simulation must not fail mid-run because a trace disk filled
// up).
type Pipetrace struct {
	bw  *bufio.Writer
	enc *json.Encoder // nil in binary mode
	bin bool
	err error

	scratch []byte // binary-mode record assembly buffer, reused

	// Uops and Events count emitted records.
	Uops, Events int64
}

// NewPipetrace creates a pipetrace streaming JSONL to w.
func NewPipetrace(w io.Writer) *Pipetrace {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Pipetrace{bw: bw, enc: json.NewEncoder(bw)}
}

// NewBinaryPipetrace creates a pipetrace streaming the binary encoding to
// w (see binpipe.go for the format). Unlike the JSONL encoder it performs
// no per-record allocation, so tracing keeps steady-state simulation
// allocation-free.
func NewBinaryPipetrace(w io.Writer) *Pipetrace {
	bw := bufio.NewWriterSize(w, 1<<16)
	t := &Pipetrace{bw: bw, bin: true, scratch: make([]byte, 0, 256)}
	if _, err := bw.Write(binMagic[:]); err != nil {
		t.err = err
	}
	return t
}

// Uop emits one uop record.
func (t *Pipetrace) Uop(r UopTrace) {
	if t.err != nil {
		return
	}
	if t.bin {
		if err := t.binUop(&r); err != nil {
			t.err = err
			return
		}
	} else {
		r.Type = "uop"
		if err := t.enc.Encode(r); err != nil {
			t.err = err
			return
		}
	}
	t.Uops++
}

// Event emits one event record. Pass template -1 / seq -1 when not
// applicable.
func (t *Pipetrace) Event(cycle int64, ev string, template int, seq int64) {
	if t.err != nil {
		return
	}
	e := TraceEvent{Type: "ev", Cycle: cycle, Ev: ev, Template: template, Seq: seq}
	if t.bin {
		if err := t.binEvent(&e); err != nil {
			t.err = err
			return
		}
	} else if err := t.enc.Encode(e); err != nil {
		t.err = err
		return
	}
	t.Events++
}

// Flush drains the buffer and returns the first write error, if any.
func (t *Pipetrace) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// traceLine is the union shape used to decode one JSONL line.
type traceLine struct {
	UopTrace
	Cycle    int64  `json:"cycle"`
	Ev       string `json:"ev"`
	Template int    `json:"template"`
}

// ReadPipetrace parses a pipetrace stream back into uop records and
// events, in file order. The format is auto-detected: a stream opening
// with the binary magic decodes as the binary encoding, anything else as
// JSONL.
func ReadPipetrace(r io.Reader) ([]UopTrace, []TraceEvent, error) {
	return readPipetrace(r, func(_, _ int64) (bool, bool) { return true, true })
}

// ReadPipetraceWindow reads the records whose index cycle (see
// UopTrace.IndexCycle; an event's is its cycle) lies in [start, end],
// inclusive, in file order. It decodes the whole stream but holds only the
// records it returns.
func ReadPipetraceWindow(r io.Reader, start, end int64) ([]UopTrace, []TraceEvent, error) {
	if start > end {
		return nil, nil, fmt.Errorf("pipetrace window: start cycle %d after end %d", start, end)
	}
	return readPipetrace(r, func(_, cycle int64) (bool, bool) {
		return cycle >= start && cycle <= end, true
	})
}

// ReadPipetraceRange reads the records whose 0-based stream ordinal lies in
// [start, end], inclusive, and stops decoding after the last of them.
func ReadPipetraceRange(r io.Reader, start, end int64) ([]UopTrace, []TraceEvent, error) {
	if start > end {
		return nil, nil, fmt.Errorf("pipetrace range: start record %d after end %d", start, end)
	}
	return readPipetrace(r, func(ord, _ int64) (bool, bool) {
		return ord >= start, ord < end
	})
}

// readPipetrace decodes r once, in file order, and keeps the records keep
// takes. keep sees each record's 0-based stream ordinal and index cycle,
// and also says whether to decode further.
func readPipetrace(r io.Reader, keep func(ord, cycle int64) (take, more bool)) ([]UopTrace, []TraceEvent, error) {
	var uops []UopTrace
	var events []TraceEvent
	var ord int64
	err := scanPipetrace(r, func(u *UopTrace, e *TraceEvent) bool {
		cycle := int64(0)
		if u != nil {
			cycle = u.IndexCycle()
		} else {
			cycle = e.Cycle
		}
		take, more := keep(ord, cycle)
		ord++
		switch {
		case !take:
		case u != nil:
			uops = append(uops, *u)
		default:
			events = append(events, *e)
		}
		return more
	})
	if err != nil {
		return nil, nil, err
	}
	return uops, events, nil
}

// scanPipetrace decodes r record by record, in file order, and hands each
// to fn: a uop as u with e nil, or an event as e with u nil. fn must not
// keep the pointers, and returns false to stop the scan. The format is
// auto-detected as in ReadPipetrace.
func scanPipetrace(r io.Reader, fn func(u *UopTrace, e *TraceEvent) bool) error {
	br := bufio.NewReaderSize(r, 1<<16)
	if sniffBinary(br) {
		return scanBinary(br, fn)
	}
	// A stream that starts like the binary magic but doesn't complete it is
	// a mangled binary trace (e.g. text-mode newline translation), not
	// JSONL; handing it to the JSONL parser would bury the real problem
	// under a confusing parse error.
	if head, _ := br.Peek(len(binMagic)); len(head) >= 4 && bytes.Equal(head[:4], binMagic[:4]) {
		return fmt.Errorf("pipetrace: corrupt binary magic %q (want %q)", head, binMagic)
	}
	return scanJSONL(br, fn)
}

// scanJSONL is scanPipetrace's JSONL decoder.
func scanJSONL(r io.Reader, fn func(u *UopTrace, e *TraceEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var l traceLine
		if err := json.Unmarshal(b, &l); err != nil {
			return fmt.Errorf("pipetrace line %d: %w", line, err)
		}
		var more bool
		switch l.Type {
		case "uop":
			more = fn(&l.UopTrace, nil)
		case "ev":
			more = fn(nil, &TraceEvent{Type: "ev", Cycle: l.Cycle, Ev: l.Ev, Template: l.Template, Seq: l.Seq})
		default:
			return fmt.Errorf("pipetrace line %d: unknown record type %q", line, l.Type)
		}
		if !more {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		// A scanner error aborts the parse mid-file; the record after the
		// last parsed line is the culprit (e.g. a line longer than the 1 MiB
		// buffer reports bufio.ErrTooLong with no position of its own).
		return fmt.Errorf("pipetrace line %d: %w", line+1, err)
	}
	return nil
}
