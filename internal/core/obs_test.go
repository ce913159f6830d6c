package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
)

// obsSweep runs a tiny observed sweep (one workload, a singleton series and
// a Slack-Dynamic series) and returns the observability files it produced,
// keyed by name. Each task's run-ledger record must name the files it wrote.
func obsSweep(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	l, err := ledger.Open(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	SetLedger(l)
	defer SetLedger(nil)
	opts := Options{
		Input:     "small",
		Workloads: []string{"comm.crc32"},
		Workers:   workers,
		Obs:       &obs.Options{Dir: dir, Pipetrace: true, IntervalEvery: 500},
	}
	red := pipeline.Reduced()
	_, err = RunSweep("obs determinism", opts, []SeriesSpec{
		{Label: "no-mg", Cfg: red},
		{Label: "Slack-Dynamic", Cfg: red, Sel: selector.SlackDynamic()},
	})
	if err != nil {
		t.Fatal(err)
	}

	recs, _, err := ledger.Read(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ledger has %d task records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Cache != cacheTraced {
			t.Errorf("task %s/%s cache outcome %q, want %q", r.Workload, r.Series, r.Cache, cacheTraced)
		}
		if len(r.Files) != 2 {
			t.Errorf("task %s/%s recorded files %v, want pipetrace+intervals", r.Workload, r.Series, r.Files)
		}
	}

	files := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", e.Name())
		}
		files[e.Name()] = data
	}
	if len(files) != 4 {
		t.Errorf("got %d trace files %v, want 4 (2 series x pipetrace+intervals)", len(files), keys(files))
	}
	return files
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameFiles(t *testing.T, label string, a, b map[string][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: file sets differ: %v vs %v", label, keys(a), keys(b))
	}
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			t.Errorf("%s: %s missing from second run", label, name)
			continue
		}
		if string(data) != string(other) {
			t.Errorf("%s: %s differs between runs (%d vs %d bytes)", label, name, len(data), len(other))
		}
	}
}

// Trace and interval outputs must be byte-identical regardless of worker
// count and cache mode (-nocache is SetCachingDisabled): each simulation is
// single-threaded deterministic, and observed runs bypass the result cache
// so a hit can never swallow the trace side effect.
func TestObservedSweepDeterministic(t *testing.T) {
	base := obsSweep(t, 1)
	sameFiles(t, "workers 1 vs 4", base, obsSweep(t, 4))

	SetCachingDisabled(true)
	defer SetCachingDisabled(false)
	sameFiles(t, "cached vs caches disabled", base, obsSweep(t, 2))
}
