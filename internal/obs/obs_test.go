package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSanitize(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"comm.crc32", "comm.crc32"},
		{"Slack-Dynamic", "Slack-Dynamic"},
		{"a b/c:d", "a_b_c_d"},
		{"ok_name-1.2", "ok_name-1.2"},
		{"", ""},
	} {
		if got := Sanitize(tc.in); got != tc.want {
			t.Errorf("Sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestOptionsActive(t *testing.T) {
	var nilOpts *Options
	if nilOpts.Active() {
		t.Error("nil Options should be inactive")
	}
	if (&Options{}).Active() {
		t.Error("zero Options should be inactive")
	}
	if !(&Options{Pipetrace: true}).Active() || !(&Options{IntervalEvery: 100}).Active() {
		t.Error("enabled Options should be active")
	}
	if FlagOptions(false, 0, "x") != nil {
		t.Error("FlagOptions with nothing enabled should be nil")
	}
	if o := FlagOptions(true, 0, ""); o == nil || o.Dir != "obs" || !o.Pipetrace {
		t.Errorf("FlagOptions default dir = %+v", o)
	}
}

func sampleSnapshots() []CycleSnapshot {
	return []CycleSnapshot{
		{Cycle: 100, Instrs: 150, Uops: 100, EmbeddedInstrs: 60,
			StallIQ: 5, StallROB: 2, Replays: 1, Serialized: 3, Harmful: 1,
			IQOcc: 4, ROBOcc: 20, LQOcc: 3, SQOcc: 2, FreeRegs: 40},
		{Cycle: 200, Instrs: 350, Uops: 220, EmbeddedInstrs: 160,
			StallIQ: 9, StallROB: 2, StallRegs: 4, Replays: 1, Serialized: 5,
			Harmful: 2, Disables: 1,
			IQOcc: 8, ROBOcc: 31, LQOcc: 1, SQOcc: 0, FreeRegs: 22, DisabledTemplates: 1},
		{Cycle: 250, Instrs: 360, Uops: 228, EmbeddedInstrs: 160,
			StallIQ: 9, StallROB: 2, StallRegs: 4, Replays: 2, Serialized: 5,
			Harmful: 2, Disables: 1, Reenables: 1,
			IQOcc: 0, ROBOcc: 2, LQOcc: 0, SQOcc: 0, FreeRegs: 60},
	}
}

func TestIntervalSamplerDeltas(t *testing.T) {
	s := NewIntervalSampler(100)
	snaps := sampleSnapshots()
	s.Sample(snaps[0])
	s.Sample(snaps[1])
	s.Final(snaps[2]) // partial 50-cycle tail

	ivs := s.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("got %d intervals, want 3", len(ivs))
	}
	first := ivs[0]
	if first.Cycle != 100 || first.Cycles != 100 || first.Instrs != 150 {
		t.Errorf("first interval = %+v", first)
	}
	if first.IPC != 1.5 || first.UPC != 1.0 {
		t.Errorf("first rates: ipc=%v upc=%v", first.IPC, first.UPC)
	}
	if first.Coverage != 0.4 { // 60/150
		t.Errorf("first coverage = %v, want 0.4", first.Coverage)
	}
	second := ivs[1]
	if second.Instrs != 200 || second.StallIQ != 4 || second.StallRegs != 4 || second.Disables != 1 {
		t.Errorf("second interval deltas = %+v", second)
	}
	if second.Coverage != 0.5 { // (160-60)/200
		t.Errorf("second coverage = %v, want 0.5", second.Coverage)
	}
	tail := ivs[2]
	if tail.Cycles != 50 || tail.Instrs != 10 || tail.Reenables != 1 {
		t.Errorf("tail interval = %+v", tail)
	}
	if tail.Coverage != 0 { // no new embedded instrs
		t.Errorf("tail coverage = %v, want 0", tail.Coverage)
	}
}

func TestIntervalSamplerDueAndNoOpSamples(t *testing.T) {
	s := NewIntervalSampler(500)
	if s.Due(0) || s.Due(499) || !s.Due(500) || s.Due(501) || !s.Due(1000) {
		t.Error("Due boundaries wrong")
	}
	s.Sample(CycleSnapshot{Cycle: 500, Instrs: 10})
	s.Sample(CycleSnapshot{Cycle: 500, Instrs: 10}) // d == 0: ignored
	s.Final(CycleSnapshot{Cycle: 500, Instrs: 10})  // end exactly on a sample
	if got := len(s.Intervals()); got != 1 {
		t.Errorf("%d intervals, want 1 (zero-length samples ignored)", got)
	}
}

func TestIntervalSamplerRingWrap(t *testing.T) {
	s := NewIntervalSampler(1)
	n := DefaultIntervalCap + 10
	for i := 1; i <= n; i++ {
		s.Sample(CycleSnapshot{Cycle: int64(i), Instrs: int64(i)})
	}
	if s.Dropped() != 10 {
		t.Fatalf("Dropped = %d, want 10", s.Dropped())
	}
	ivs := s.Intervals()
	if len(ivs) != DefaultIntervalCap {
		t.Fatalf("retained %d, want %d", len(ivs), DefaultIntervalCap)
	}
	if ivs[0].Cycle != 11 || ivs[len(ivs)-1].Cycle != int64(n) {
		t.Errorf("ring order: first=%d last=%d, want 11 and %d",
			ivs[0].Cycle, ivs[len(ivs)-1].Cycle, n)
	}
}

func TestPipetraceRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewPipetrace(&buf)
	u1 := UopTrace{Seq: 1, Static: 10, Kind: "singleton", Op: "addi", N: 1,
		Fetch: 5, Rename: 7, Issue: 9, Done: 11, Ready: 10, Commit: 12,
		Dst: 4, Srcs: []int{4}, Tmpl: -1}
	u2 := UopTrace{Seq: 2, Static: 11, Kind: "handle", Op: "ldw", N: 3,
		Fetch: 5, Rename: 7, Issue: 9, Done: 15, Ready: 15, Commit: -1,
		Replays: 1, Squashed: true,
		Dst: 7, Srcs: []int{3, 5}, Tmpl: 2, Mem: MemLoad, Addr: 0x1000,
		SerLat: 2, SerOut: 1, MemLat: 9, SerExt: true}
	tr.Uop(u1)
	tr.Event(13, EvFlush, -1, 2)
	tr.Uop(u2)
	tr.Event(20, EvDisable, 4, -1)
	tr.Event(40, EvReenable, 4, -1)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Uops != 2 || tr.Events != 3 {
		t.Errorf("counters: uops=%d events=%d", tr.Uops, tr.Events)
	}

	uops, events, err := ReadPipetrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	u1.Type, u2.Type = "uop", "uop"
	if len(uops) != 2 || !reflect.DeepEqual(uops[0], u1) || !reflect.DeepEqual(uops[1], u2) {
		t.Errorf("uops roundtrip:\n got %+v\nwant %+v", uops, []UopTrace{u1, u2})
	}
	if len(events) != 3 || events[0].Ev != EvFlush || events[0].Seq != 2 ||
		events[1].Ev != EvDisable || events[1].Template != 4 ||
		events[2].Ev != EvReenable || events[2].Cycle != 40 {
		t.Errorf("events roundtrip: %+v", events)
	}
}

func TestPipetraceStickyError(t *testing.T) {
	// Records buffer in 64 KB chunks, so the underlying write error only
	// surfaces once the buffer spills; from then on emission is a no-op.
	tr := NewPipetrace(failWriter{})
	n := int64(0)
	for i := 0; i < 2000; i++ {
		tr.Uop(UopTrace{Seq: int64(i), Op: strings.Repeat("x", 64)})
		n++
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("expected sticky write error")
	}
	if tr.Uops >= n {
		t.Errorf("writes after the first error should be dropped (Uops=%d of %d)", tr.Uops, n)
	}
}

// The first write error must be retained verbatim, later Uop AND Event
// calls must be no-ops, and Flush must keep reporting the original error.
func TestPipetraceStickyErrorRetainsFirst(t *testing.T) {
	tr := NewPipetrace(failWriter{})
	// Spill the 64 KB buffer so the failing write surfaces.
	for i := 0; i < 2000 && tr.err == nil; i++ {
		tr.Uop(UopTrace{Seq: int64(i), Op: strings.Repeat("y", 64)})
	}
	if tr.err == nil {
		t.Fatal("write error never surfaced")
	}
	uops, events := tr.Uops, tr.Events
	tr.Uop(UopTrace{Seq: 9999})
	tr.Event(1, EvFlush, -1, 9999)
	if tr.Uops != uops || tr.Events != events {
		t.Errorf("post-error emissions counted: uops %d->%d, events %d->%d",
			uops, tr.Uops, events, tr.Events)
	}
	if err := tr.Flush(); err != os.ErrClosed {
		t.Errorf("Flush = %v, want the retained first error %v", err, os.ErrClosed)
	}
	if err := tr.Flush(); err != os.ErrClosed {
		t.Errorf("second Flush = %v, want the same sticky error", err)
	}
}

// A line longer than the scanner buffer must fail with a line-numbered
// error, not a bare bufio.ErrTooLong.
func TestReadPipetraceLineTooLong(t *testing.T) {
	var buf bytes.Buffer
	tr := NewPipetrace(&buf)
	tr.Uop(UopTrace{Seq: 1, Kind: "singleton", Op: "addi", N: 1, Dst: -1, Tmpl: -1})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"t":"uop","seq":2,"op":"` + strings.Repeat("x", 1<<20) + `"}` + "\n")
	_, _, err := ReadPipetrace(&buf)
	if err == nil {
		t.Fatal("oversized line should fail the parse")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the offending line", err)
	}
}

// Traces written before the schema gained dependence fields (the PR-2
// golden content, embedded verbatim) must still parse, and HasDeps must
// report that they lack dependence information.
func TestLegacySchemaParses(t *testing.T) {
	legacy := `{"t":"uop","seq":7,"static":3,"kind":"handle","op":"addi","n":3,"fetch":10,"rename":12,"issue":14,"done":17,"ready":16,"commit":18,"replays":0,"mispred":false,"squashed":false}
{"t":"uop","seq":8,"static":6,"kind":"singleton","op":"bnez","n":1,"fetch":10,"rename":12,"issue":15,"done":16,"ready":-1,"commit":-1,"replays":0,"mispred":true,"squashed":true}
{"t":"uop","seq":9,"static":0,"kind":"ovh-jump","op":"jmp","n":0,"fetch":11,"rename":13,"issue":16,"done":17,"ready":-1,"commit":19,"replays":2,"mispred":false,"squashed":false}
{"t":"ev","cycle":17,"ev":"flush","template":-1,"seq":8}
{"t":"ev","cycle":30,"ev":"disable","template":2,"seq":-1}
{"t":"ev","cycle":90,"ev":"reenable","template":2,"seq":-1}
`
	uops, events, err := ReadPipetrace(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(uops) != 3 || len(events) != 3 {
		t.Fatalf("parsed %d uops / %d events, want 3 / 3", len(uops), len(events))
	}
	if uops[0].Seq != 7 || uops[0].Kind != "handle" || uops[0].Done != 17 {
		t.Errorf("legacy uop decoded wrong: %+v", uops[0])
	}
	if HasDeps(uops) {
		t.Error("legacy trace must report HasDeps == false")
	}
	// Current-writer records (Tmpl -1 for non-handles) do carry deps.
	if !HasDeps([]UopTrace{{Seq: 1, Tmpl: -1}}) {
		t.Error("current-schema trace must report HasDeps == true")
	}
}

// A file truncated mid-record must fail with a line-numbered error.
func TestReadPipetraceTruncatedFile(t *testing.T) {
	var buf bytes.Buffer
	tr := NewPipetrace(&buf)
	tr.Uop(UopTrace{Seq: 1, Kind: "singleton", Op: "addi", N: 1, Dst: -1, Tmpl: -1})
	tr.Uop(UopTrace{Seq: 2, Kind: "singleton", Op: "xori", N: 1, Dst: -1, Tmpl: -1})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()
	cut := whole[:len(whole)-20] // chop the tail of the final record
	_, _, err := ReadPipetrace(strings.NewReader(cut))
	if err == nil {
		t.Fatal("truncated file should fail the parse")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the truncated line", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, os.ErrClosed }

func TestIntervalsReadWriteRoundtrip(t *testing.T) {
	s := NewIntervalSampler(100)
	for _, snap := range sampleSnapshots() {
		s.Sample(snap)
	}
	ivs := s.Intervals()

	var jb bytes.Buffer
	if err := WriteIntervalsJSONL(&jb, ivs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIntervals(&jb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ivs) {
		t.Errorf("JSONL roundtrip:\n got %+v\nwant %+v", back, ivs)
	}

	var cb bytes.Buffer
	if err := WriteIntervalsCSV(&cb, ivs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(cb.String(), "\n"), "\n")
	if len(lines) != len(ivs)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(ivs)+1)
	}
	nCols := len(strings.Split(lines[0], ","))
	for i, l := range lines {
		if got := len(strings.Split(l, ",")); got != nCols {
			t.Errorf("CSV line %d has %d columns, header has %d", i, got, nCols)
		}
	}
}

func TestObserverFilesAndClose(t *testing.T) {
	dir := t.TempDir()
	opts := &Options{Dir: dir, Pipetrace: true, IntervalEvery: 100}
	o, err := NewRunObserver(opts, "w__series")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Active() {
		t.Fatal("observer should be active")
	}
	o.Trace.Uop(UopTrace{Seq: 1, Kind: "singleton", Op: "addi", N: 1,
		Fetch: 0, Rename: 1, Issue: 2, Done: 3, Ready: 3, Commit: 4})
	o.Intervals.Sample(CycleSnapshot{Cycle: 100, Instrs: 5, Uops: 5})
	files := o.Files()
	want := []string{"w__series.pipetrace.bin", "w__series.intervals.jsonl"}
	if !reflect.DeepEqual(files, want) {
		t.Errorf("Files = %v, want %v", files, want)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range want {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", f)
		}
	}
	var nilObs *Observer
	if nilObs.Active() || nilObs.Close() != nil || nilObs.Files() != nil {
		t.Error("nil observer must be inert")
	}
}

// The on-disk schemas are stable: renames, reorderings, or type changes of
// existing fields break consumers of previously written traces. Golden
// files pin the byte-exact encoding (regenerate with -update only for
// deliberate, append-only schema growth). The JSONL pipetrace is what
// ConvertPipetrace makes of the binary trace a run writes.
func TestSchemaGoldens(t *testing.T) {
	var bin bytes.Buffer
	tr := NewBinaryPipetrace(&bin)
	tr.Uop(UopTrace{Seq: 7, Static: 3, Kind: "handle", Op: "addi", N: 3,
		Fetch: 10, Rename: 12, Issue: 14, Done: 17, Ready: 16, Commit: 18,
		Dst: 5, Srcs: []int{1, 2}, Tmpl: 2, Mem: MemNone, SerLat: 2, SerOut: 1})
	tr.Uop(UopTrace{Seq: 8, Static: 6, Kind: "singleton", Op: "bnez", N: 1,
		Fetch: 10, Rename: 12, Issue: 15, Done: 16, Ready: -1, Commit: -1,
		Mispred: true, Squashed: true, Dst: -1, Srcs: []int{5}, Tmpl: -1})
	tr.Uop(UopTrace{Seq: 9, Static: 0, Kind: "ovh-jump", Op: "jmp", N: 0,
		Fetch: 11, Rename: 13, Issue: 16, Done: 17, Ready: -1, Commit: 19, Replays: 2,
		Dst: -1, Tmpl: -1})
	tr.Event(17, EvFlush, -1, 8)
	tr.Event(30, EvDisable, 2, -1)
	tr.Event(90, EvReenable, 2, -1)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := ConvertPipetrace(&bin, &trace); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pipetrace.golden.jsonl", trace.Bytes())

	s := NewIntervalSampler(100)
	for _, snap := range sampleSnapshots() {
		s.Sample(snap)
	}
	var jb, cb bytes.Buffer
	if err := WriteIntervalsJSONL(&jb, s.Intervals()); err != nil {
		t.Fatal(err)
	}
	if err := WriteIntervalsCSV(&cb, s.Intervals()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "intervals.golden.jsonl", jb.Bytes())
	checkGolden(t, "intervals.golden.csv", cb.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: schema drift.\n got:\n%s\nwant:\n%s", name, got, want)
	}
}
