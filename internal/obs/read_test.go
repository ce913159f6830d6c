package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// synthUop builds the i-th record of a synthetic trace: commit cycles grow
// roughly two per record, with every 97th uop squashed (Commit -1) so the
// index-cycle rule's squash branch is exercised throughout.
func synthUop(i int) UopTrace {
	c := int64(100 + 2*i)
	u := UopTrace{Seq: int64(i), Static: i % 50, Kind: "singleton", Op: "addi", N: 1,
		Fetch: c - 9, Rename: c - 7, Issue: c - 5, Done: c - 3, Ready: c - 3, Commit: c,
		Dst: i % 32, Srcs: []int{i % 32, (i + 1) % 32}, Tmpl: -1}
	if i%97 == 3 {
		u.Commit = -1
		u.Squashed = true
	}
	return u
}

// writeSynthTrace writes n synthetic records (uops plus an event every
// 1000th record) to tr and flushes it.
func writeSynthTrace(t *testing.T, tr *Pipetrace, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		u := synthUop(i)
		tr.Uop(u)
		if i%1000 == 500 {
			tr.Event(u.IndexCycle(), EvFlush, -1, u.Seq)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// A window or range read returns exactly the records a full read holds in
// that window or range, and a range read stops decoding after its last
// record: corruption past it goes unread.
func TestWindowAndRangeMatchFullRead(t *testing.T) {
	var buf bytes.Buffer
	writeSynthTrace(t, NewBinaryPipetrace(&buf), 20_000)
	raw := buf.Bytes()
	uops, events, err := ReadPipetrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	start, end := int64(20_100), int64(22_100)
	var wantU []UopTrace
	var wantE []TraceEvent
	for _, u := range uops {
		if c := u.IndexCycle(); c >= start && c <= end {
			wantU = append(wantU, u)
		}
	}
	for _, e := range events {
		if e.Cycle >= start && e.Cycle <= end {
			wantE = append(wantE, e)
		}
	}
	gotU, gotE, err := ReadPipetraceWindow(bytes.NewReader(raw), start, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotU) == 0 || len(gotE) == 0 || !reflect.DeepEqual(gotU, wantU) || !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("window [%d, %d]: %d/%d uops, %d/%d events", start, end,
			len(gotU), len(wantU), len(gotE), len(wantE))
	}

	// Records 0..600 hold uops 0..599 and, at ordinal 501, the first event.
	corrupt := append(bytes.Clone(raw), 0x7f, 0, 0, 0, 0)
	if _, _, err := ReadPipetrace(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("full read accepted a trailing unknown tag")
	}
	gotU, gotE, err = ReadPipetraceRange(bytes.NewReader(corrupt), 3, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotE) != 1 || len(gotU) != 597 || !reflect.DeepEqual(gotU, uops[3:600]) {
		t.Errorf("range 3:600: %d uops (want 597), %d events (want 1)", len(gotU), len(gotE))
	}
}

// A window entirely past the end of the trace is a valid, empty query —
// not an error.
func TestWindowPastEOF(t *testing.T) {
	var buf bytes.Buffer
	writeSynthTrace(t, NewBinaryPipetrace(&buf), 5_000)
	last := synthUop(4_999).Commit
	u, e, err := ReadPipetraceWindow(bytes.NewReader(buf.Bytes()), last+1, last+1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 0 || len(e) != 0 {
		t.Errorf("window past EOF returned %d uops, %d events", len(u), len(e))
	}
	if _, _, err := ReadPipetraceWindow(bytes.NewReader(buf.Bytes()), 10, 5); err == nil {
		t.Error("inverted window accepted")
	}
	if _, _, err := ReadPipetraceRange(bytes.NewReader(buf.Bytes()), 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
	u, e, err = ReadPipetraceWindow(bytes.NewReader(binMagic[:]), 0, 1<<40)
	if err != nil || len(u) != 0 || len(e) != 0 {
		t.Errorf("window over an empty trace: %d uops, %d events, err %v", len(u), len(e), err)
	}
}

// JSONL traces get the same window and range filtering as binary ones.
func TestWindowJSONLFallback(t *testing.T) {
	var jb bytes.Buffer
	jt := NewPipetrace(&jb)
	for i := 0; i < 500; i++ {
		jt.Uop(synthUop(i))
	}
	jt.Event(600, EvFlush, -1, 42)
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	u, e, err := ReadPipetraceWindow(bytes.NewReader(jb.Bytes()), 600, 700)
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 1 {
		t.Errorf("got %d events in window, want 1", len(e))
	}
	for _, x := range u {
		if c := x.IndexCycle(); c < 600 || c > 700 {
			t.Errorf("uop seq %d cycle %d outside window", x.Seq, c)
		}
	}
	u2, _, err := ReadPipetraceRange(bytes.NewReader(jb.Bytes()), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(u2) != 5 || u2[0].Seq != 3 {
		t.Errorf("JSONL range: %d uops, first seq %v", len(u2), u2)
	}
}
