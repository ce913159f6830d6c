package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"testing"
)

// FuzzParseLine checks that the ledger line decoder rejects bad input
// without panicking, and that every record it accepts round-trips through
// Append and Read: the record read back encodes like the one accepted,
// once Append has stamped the fields it fills when they are unset. Each
// input is also tried with its checksum recomputed, so mutations reach
// the JSON decoding behind the CRC.
func FuzzParseLine(f *testing.F) {
	l, err := Open(f.TempDir(), "seed")
	if err != nil {
		f.Fatal(err)
	}
	seeds := []Record{
		rec("comm.crc32", 1.5),
		{Tool: "sweep", Sweep: "Figure 6 top", Workload: "comm.crc32", Series: "Slack-Dynamic",
			Input: "small", Key: "0123456789abcdef", Cache: "traced",
			Files:  []string{"comm.crc32__Slack-Dynamic.pipetrace.bin", "comm.crc32__Slack-Dynamic.pipetrace.bin.mgidx"},
			WallMS: 12.5, CPUMS: 11.25, Cycles: 4000, Instrs: 6000, IPC: 1.5,
			Critpath: map[string]int64{"serialization": 2}},
		{Tool: "mgsim", Workload: "w", Series: "s", Input: "large", Estimate: true,
			Sample: "rep/i1000/w1000/k8", Error: "boom"},
	}
	for _, r := range seeds {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(l.Path())
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte(linePrefix))
	f.Add([]byte("v1 00000000 {}"))

	f.Fuzz(func(t *testing.T, line []byte) {
		for _, in := range [][]byte{line, withLineCRC(line)} {
			if r, ok := parseLine(in); ok {
				roundTrip(t, r)
			}
		}
	})
}

// roundTrip appends r to a fresh ledger, reads it back and requires the
// record read to encode like r with the fields Append stamps filled in.
func roundTrip(t *testing.T, r Record) {
	t.Helper()
	l, err := Open(t.TempDir(), "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(r); err != nil {
		t.Fatalf("accepted record does not append: %v", err)
	}
	back, skipped, err := Read(l.Path())
	if err != nil || skipped != 0 || len(back) != 1 {
		t.Fatalf("read back %d records, %d skipped, err %v", len(back), skipped, err)
	}
	want := r
	if want.Time == "" {
		want.Time = back[0].Time
	}
	if want.Rev == "" {
		want.Rev = l.Rev()
	}
	if want.RunID == "" {
		want.RunID = back[0].RunID
	}
	if want.Host == (Host{}) {
		want.Host = l.Host()
	}
	w, _ := json.Marshal(&want)
	g, _ := json.Marshal(&back[0])
	if !bytes.Equal(w, g) {
		t.Fatalf("record changed through Append/Read:\n in  %s\n out %s", w, g)
	}
}

// withLineCRC returns a copy of line with its checksum recomputed over its
// body, so mutations reach the JSON decoding behind the CRC.
func withLineCRC(line []byte) []byte {
	if !bytes.HasPrefix(line, []byte(linePrefix)) || len(line) < len(linePrefix)+9 {
		return line
	}
	out := bytes.Clone(line)
	body := out[len(linePrefix)+9:]
	copy(out[len(linePrefix):], fmt.Sprintf("%08x", crc32.Checksum(body, castagnoli)))
	return out
}
