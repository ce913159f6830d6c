package obs

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// sampleTraceRecords emits a representative record mix (all three uop
// kinds, every flag, interleaved events) into tr.
func sampleTraceRecords(tr *Pipetrace) {
	tr.Uop(UopTrace{Seq: 1, Static: 10, Kind: "singleton", Op: "addi", N: 1,
		Fetch: 5, Rename: 7, Issue: 9, Done: 11, Ready: 10, Commit: 12,
		Dst: 4, Srcs: []int{4}, Tmpl: -1})
	tr.Event(13, EvFlush, -1, 2)
	tr.Uop(UopTrace{Seq: 2, Static: 11, Kind: "handle", Op: "ldw", N: 3,
		Fetch: 5, Rename: 7, Issue: 9, Done: 15, Ready: 15, Commit: -1,
		Replays: 1, Mispred: true, Squashed: true,
		Dst: 7, Srcs: []int{3, 5, 6}, Tmpl: 2, Mem: MemLoad, Addr: 0xdeadbeef,
		SerLat: 2, SerOut: 1, MemLat: 9, SerExt: true})
	tr.Uop(UopTrace{Seq: 3, Static: 0, Kind: "ovh-jump", Op: "jmp", N: 0,
		Fetch: 6, Rename: 8, Issue: 10, Done: 11, Ready: -1, Commit: 13,
		Dst: -1, Tmpl: -1})
	tr.Event(20, EvDisable, 4, -1)
	tr.Event(40, EvReenable, 4, -1)
}

func TestBinaryPipetraceRoundtrip(t *testing.T) {
	var jb, bb bytes.Buffer
	jt, bt := NewPipetrace(&jb), NewBinaryPipetrace(&bb)
	sampleTraceRecords(jt)
	sampleTraceRecords(bt)
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	if bt.Uops != 3 || bt.Events != 3 {
		t.Errorf("binary counters: uops=%d events=%d", bt.Uops, bt.Events)
	}
	if bb.Len() >= jb.Len() {
		t.Errorf("binary trace (%d bytes) not smaller than JSONL (%d bytes)", bb.Len(), jb.Len())
	}

	ju, je, err := ReadPipetrace(bytes.NewReader(jb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bu, be, err := ReadPipetrace(bytes.NewReader(bb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bu, ju) {
		t.Errorf("uops differ between encodings:\n binary %+v\n jsonl  %+v", bu, ju)
	}
	if !reflect.DeepEqual(be, je) {
		t.Errorf("events differ between encodings:\n binary %+v\n jsonl  %+v", be, je)
	}
}

// ConvertPipetrace must reproduce the JSONL writer's output byte for byte,
// including the interleaved uop/event order.
func TestConvertPipetraceByteIdentical(t *testing.T) {
	var jb, bb bytes.Buffer
	jt, bt := NewPipetrace(&jb), NewBinaryPipetrace(&bb)
	sampleTraceRecords(jt)
	sampleTraceRecords(bt)
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	var conv bytes.Buffer
	if err := ConvertPipetrace(bytes.NewReader(bb.Bytes()), &conv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(conv.Bytes(), jb.Bytes()) {
		t.Errorf("converted JSONL differs from direct JSONL:\n got:\n%s\nwant:\n%s",
			conv.Bytes(), jb.Bytes())
	}
	if err := ConvertPipetrace(bytes.NewReader(jb.Bytes()), &conv); err == nil {
		t.Error("converting a JSONL trace must be rejected (no binary magic)")
	}
}

func TestBinaryPipetraceCorruption(t *testing.T) {
	var bb bytes.Buffer
	bt := NewBinaryPipetrace(&bb)
	sampleTraceRecords(bt)
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := bb.Bytes()

	check := func(name string, data []byte, wantSub string) {
		t.Helper()
		_, _, err := ReadPipetrace(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: corrupted stream parsed without error", name)
			return
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	// Chop the final record mid-payload.
	check("truncated", whole[:len(whole)-5], "truncated")

	// Flip the first record's tag to an unknown value.
	bad := bytes.Clone(whole)
	bad[len(binMagic)] = 0x7f
	check("unknown tag", bad, "unknown tag")

	// Declare an absurd payload length.
	bad = bytes.Clone(whole)
	bad[len(binMagic)+1] = 0xff
	bad[len(binMagic)+2] = 0xff
	bad[len(binMagic)+3] = 0xff
	check("oversized payload", bad, "exceeds limit")

	// Corrupt the kind code inside the first uop payload.
	bad = bytes.Clone(whole)
	bad[len(binMagic)+5+102] = 0x2a
	check("bad kind", bad, "unknown kind code")

	// A mnemonic that is not UTF-8 could not survive ConvertPipetrace.
	bad = bytes.Clone(whole)
	bad[len(binMagic)+5+binUopFixed] = 0xff
	check("bad mnemonic", bad, "not UTF-8")

	// A header alone (magic + tag byte, no length) is truncated too.
	check("header only", whole[:len(binMagic)+1], "truncated")
}

// A stream that opens with neither '{' nor the magic falls through to the
// JSONL parser and fails there with a line-numbered error, and a truncated
// or mangled magic is not misread as JSONL by any of the three reads.
func TestReadPipetraceSniffing(t *testing.T) {
	if _, _, err := ReadPipetrace(strings.NewReader("garbage\n")); err == nil {
		t.Error("garbage stream parsed without error")
	}
	u, e, err := ReadPipetrace(strings.NewReader(""))
	if err != nil || len(u) != 0 || len(e) != 0 {
		t.Errorf("empty stream: uops=%d events=%d err=%v", len(u), len(e), err)
	}
	if _, _, err := ReadPipetrace(strings.NewReader(string(binMagic[:4]))); err == nil {
		t.Error("truncated magic parsed without error")
	}
	const mangled = "MGPTxxxx garbage"
	if _, _, err := ReadPipetraceWindow(strings.NewReader(mangled), 0, 1); err == nil || !strings.Contains(err.Error(), "corrupt binary magic") {
		t.Errorf("window read of a mangled magic: %v", err)
	}
	if _, _, err := ReadPipetraceRange(strings.NewReader(mangled), 0, 1); err == nil || !strings.Contains(err.Error(), "corrupt binary magic") {
		t.Errorf("range read of a mangled magic: %v", err)
	}
}

func TestBinaryPipetraceStickyError(t *testing.T) {
	tr := NewBinaryPipetrace(failWriter{})
	for i := 0; i < 2000 && tr.err == nil; i++ {
		tr.Uop(UopTrace{Seq: int64(i), Kind: "singleton", Op: "addi", N: 1})
	}
	if tr.err == nil {
		t.Fatal("write error never surfaced")
	}
	uops := tr.Uops
	tr.Uop(UopTrace{Seq: 9999, Kind: "singleton"})
	tr.Event(1, EvFlush, -1, 9999)
	if tr.Uops != uops || tr.Events != 0 {
		t.Error("post-error emissions must be dropped")
	}
	if err := tr.Flush(); err == nil {
		t.Error("Flush must report the sticky error")
	}

	// An unencodable record is itself a sticky error.
	var bb bytes.Buffer
	tr = NewBinaryPipetrace(&bb)
	tr.Uop(UopTrace{Seq: 1, Kind: "no-such-kind"})
	if err := tr.Flush(); err == nil || !strings.Contains(err.Error(), "unknown uop kind") {
		t.Errorf("unknown kind: Flush = %v", err)
	}
}

// BenchmarkPipetraceUop compares the per-record cost of the two trace
// encodings; the binary writer must not allocate per record.
func BenchmarkPipetraceUop(b *testing.B) {
	rec := UopTrace{Seq: 2, Static: 11, Kind: "handle", Op: "ldw", N: 3,
		Fetch: 5, Rename: 7, Issue: 9, Done: 15, Ready: 15, Commit: 17,
		Dst: 7, Srcs: []int{3, 5}, Tmpl: 2, Mem: MemLoad, Addr: 0x1000,
		SerLat: 2, SerOut: 1, MemLat: 9}
	for _, enc := range []struct {
		name string
		mk   func(io.Writer) *Pipetrace
	}{{"jsonl", NewPipetrace}, {"binary", NewBinaryPipetrace}} {
		b.Run(enc.name, func(b *testing.B) {
			tr := enc.mk(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Seq = int64(i)
				tr.Uop(rec)
			}
			if err := tr.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// The binary layout is as stable as the JSONL schema: a golden file pins
// the byte-exact encoding (regenerate with -update only for deliberate,
// append-only growth).
func TestBinarySchemaGolden(t *testing.T) {
	var bb bytes.Buffer
	bt := NewBinaryPipetrace(&bb)
	sampleTraceRecords(bt)
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pipetrace.golden.bin", bb.Bytes())
}
