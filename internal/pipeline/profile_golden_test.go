package pipeline_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/slack"
	"repro/internal/workload"
)

var updateProfiles = flag.Bool("update-profiles", false, "rewrite testdata/profile_golden.tsv")

const profileGoldenPath = "testdata/profile_golden.tsv"

// profileGoldenConfigs are the machines slack profiles are trained on:
// the two Fig 6 machines and the three Fig 9 cross-configurations.
var profileGoldenConfigs = []pipeline.Config{
	pipeline.Reduced(), pipeline.Baseline(), pipeline.Width2(), pipeline.Width8(), pipeline.SmallDMem(),
}

// goldenRows runs rows on every workload and returns their lines in
// workload order. Workloads are spread over two goroutines.
func goldenRows(t *testing.T, rows func(*workload.Workload) ([]string, error)) []string {
	ws := workload.All()
	lines := make([][]string, len(ws))
	errs := make([]error, len(ws))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i], errs[i] = rows(ws[i])
			}
		}()
	}
	for i := range ws {
		next <- i
	}
	close(next)
	wg.Wait()
	var out []string
	for i, r := range lines {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		out = append(out, r...)
	}
	return out
}

// writeGolden writes a golden table: a "# " header line, then the rows.
func writeGolden(t *testing.T, path, header string, rows []string) {
	var b strings.Builder
	b.WriteString("# " + header + "\n")
	for _, r := range rows {
		b.WriteString(r + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readGolden returns a golden table's rows, without comments and blank
// lines.
func readGolden(t *testing.T, path string) []string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// compareRows reports the rows of got that differ from want, the first
// ten in full.
func compareRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("%s mismatch:\n got %s\nwant %s", what, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d %s mismatches in all", bad, what)
	}
}

// profileWorkload profiles one workload on every input and profiling
// configuration and returns one line per run: the key, the run's cycles
// and instructions, and the SHA-256 of the profile's Save bytes. Outside
// -race builds, each profiling run's Stats must equal a plain run's on the
// same machine.
func profileWorkload(w *workload.Workload) ([]string, error) {
	var rows []string
	for _, input := range []string{"small", "large"} {
		p, _, _, err := w.Build(input)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, input, err)
		}
		res, err := emu.Run(p, emu.Options{CollectTrace: true})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, input, err)
		}
		for _, cfg := range profileGoldenConfigs {
			acc := slack.NewAccumulator(p.Name, p.NumInstrs())
			st, err := pipeline.Run(p, res.Trace, cfg, pipeline.MGConfig{}, acc)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", w.Name, input, cfg.Name, err)
			}
			// A profiling run's Stats stand in for the plain run's (core
			// answers an exact singleton from the profiling run), so
			// profiling must not change timing. Under -race the plain runs
			// would double the test's cost to check single-goroutine code
			// the normal run already checks, so they are skipped there.
			if !pipeline.RaceEnabled {
				plain, err := pipeline.Run(p, res.Trace, cfg, pipeline.MGConfig{}, nil)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", w.Name, input, cfg.Name, err)
				}
				if !reflect.DeepEqual(st, plain) {
					return nil, fmt.Errorf("%s/%s/%s: profiling changed the run's Stats:\nprofiled %+v\nplain    %+v",
						w.Name, input, cfg.Name, *st, *plain)
				}
			}
			var buf bytes.Buffer
			if err := acc.Profile().Save(&buf); err != nil {
				return nil, err
			}
			rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%d\t%d\t%x",
				w.Name, input, cfg.Name, st.Cycles, st.Instrs, sha256.Sum256(buf.Bytes())))
		}
	}
	return rows, nil
}

// TestProfileGolden is the standing oracle for the slack profiler: the
// Save bytes of every workload's profile, on both inputs and every
// profiling configuration, must hash to the recorded values, and (outside
// -race builds) the profiling run's Stats must equal the plain singleton
// run's. Regenerate with -update-profiles only for an intended change to
// what a profile measures.
func TestProfileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every workload on both inputs")
	}
	got := goldenRows(t, profileWorkload)
	if *updateProfiles {
		writeGolden(t, profileGoldenPath, "program\tinput\tconfig\tcycles\tinstrs\tsha256(Profile.Save)", got)
		return
	}
	compareRows(t, "profile", got, readGolden(t, profileGoldenPath))
}
