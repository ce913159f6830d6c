package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadChromeTrace checks that the Chrome trace reader, and the
// validator behind mgtrace -spans, reject bad input with an error and
// never panic.
func FuzzReadChromeTrace(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sweep_2w4t.trace.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"traceEvents":[{"name":"task","ph":"E","ts":1,"pid":1,"tid":1}]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		ValidateChromeTrace(tr)
	})
}
