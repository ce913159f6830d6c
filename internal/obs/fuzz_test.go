package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadPipetrace checks that the pipetrace reader, binary and JSONL
// alike, rejects bad input with an error and never panics, and that for
// every input it accepts the other reads agree with it: the window read
// over the trace's whole index-cycle span and the range read over every
// record return the same records, and a binary trace converted to JSONL
// reads back the same.
func FuzzReadPipetrace(f *testing.F) {
	for _, name := range []string{"pipetrace.golden.bin", "pipetrace.golden.jsonl"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(binMagic[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		uops, events, err := ReadPipetrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		same := func(what string, u []UopTrace, e []TraceEvent, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s rejects what ReadPipetrace accepts: %v", what, err)
			}
			if !reflect.DeepEqual(u, uops) || !reflect.DeepEqual(e, events) {
				t.Fatalf("%s: %d uops, %d events; ReadPipetrace: %d uops, %d events",
					what, len(u), len(e), len(uops), len(events))
			}
		}

		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := range uops {
			lo, hi = min(lo, uops[i].IndexCycle()), max(hi, uops[i].IndexCycle())
		}
		for _, e := range events {
			lo, hi = min(lo, e.Cycle), max(hi, e.Cycle)
		}
		if n := int64(len(uops) + len(events)); n > 0 {
			u, e, err := ReadPipetraceWindow(bytes.NewReader(data), lo, hi)
			same("window read", u, e, err)
			u, e, err = ReadPipetraceRange(bytes.NewReader(data), 0, n-1)
			same("range read", u, e, err)
		}

		if !bytes.HasPrefix(data, binMagic[:]) {
			return
		}
		var jsonl bytes.Buffer
		if err := ConvertPipetrace(bytes.NewReader(data), &jsonl); err != nil {
			t.Fatalf("ConvertPipetrace rejects what ReadPipetrace accepts: %v", err)
		}
		u, e, err := ReadPipetrace(&jsonl)
		same("ConvertPipetrace then ReadPipetrace", u, e, err)
	})
}
