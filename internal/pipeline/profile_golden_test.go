package pipeline_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

// profileGoldenRows profiles every workload on every input and profiling
// configuration and returns one line per run: the key, the run's cycles
// and instructions, and the SHA-256 of the profile's Save bytes. Workloads
// are spread over two goroutines; rows come back in workload order.
func profileGoldenRows(t *testing.T) []string {
	ws := workload.All()
	rows := make([][]string, len(ws))
	errs := make([]error, len(ws))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i], errs[i] = profileWorkload(ws[i])
			}
		}()
	}
	for i := range ws {
		next <- i
	}
	close(next)
	wg.Wait()
	var out []string
	for i, r := range rows {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		out = append(out, r...)
	}
	return out
}

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
// profiling configuration, must hash to the recorded values. Regenerate
// with -update-profiles only for an intended change to what a profile
// measures.
func TestProfileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every workload on both inputs")
	}
	got := profileGoldenRows(t)
	if *updateProfiles {
		var b strings.Builder
		b.WriteString("# program\tinput\tconfig\tcycles\tinstrs\tsha256(Profile.Save)\n")
		for _, r := range got {
			b.WriteString(r + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(profileGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(profileGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(profileGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d profiles, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("profile mismatch:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d mismatches in all", bad)
	}
}
