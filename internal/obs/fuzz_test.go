package obs

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadPipetrace checks that the pipetrace reader, binary and JSONL
// alike, rejects bad input with an error and never panics.
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
		ReadPipetrace(bytes.NewReader(data))
	})
}

// FuzzReadIndex checks that the seek-index reader never panics and that
// every index it accepts re-encodes byte-identically. Each input is also
// tried with its checksum recomputed, so mutations reach the structural
// checks behind the CRC.
func FuzzReadIndex(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pipetrace.golden.bin"))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := BuildIndex(bytes.NewReader(raw), 4)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := WriteIndex(&seed, idx); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(idxMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withIndexCRC(data)} {
			x, err := ReadIndex(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := WriteIndex(&out, x); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("accepted index re-encodes differently:\n in  %x\n out %x", in, out.Bytes())
			}
		}
	})
}

// withIndexCRC returns a copy of data with the index checksum, which sits
// in the 4 bytes before the 8-byte end magic, recomputed.
func withIndexCRC(data []byte) []byte {
	if len(data) < 12 {
		return data
	}
	out := bytes.Clone(data)
	off := len(out) - 12
	binary.LittleEndian.PutUint32(out[off:], crc32.Checksum(out[:off], crcTab))
	return out
}
