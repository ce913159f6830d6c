package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
)

// obsSweep runs a tiny observed sweep (one workload, a singleton series and
// a Slack-Dynamic series) and returns the observability files it produced,
// keyed by name, minus the manifest (whose wall times legitimately vary).
func obsSweep(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	opts := Options{
		Input:     "small",
		Workloads: []string{"comm.crc32"},
		Workers:   workers,
		Obs:       &obs.Options{Dir: dir, Pipetrace: true, IntervalEvery: 500},
	}
	red := pipeline.Reduced()
	_, err := RunSweep("obs determinism", opts, []SeriesSpec{
		{Label: "no-mg", Cfg: red},
		{Label: "Slack-Dynamic", Cfg: red, Sel: selector.SlackDynamic()},
	})
	if err != nil {
		t.Fatal(err)
	}

	man, err := obs.ReadManifest(filepath.Join(dir, "obs_determinism.manifest.json"))
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(man.Tasks) != 2 {
		t.Fatalf("manifest has %d tasks, want 2", len(man.Tasks))
	}
	for _, task := range man.Tasks {
		if task.Cache != cacheTraced {
			t.Errorf("task %s/%s cache outcome %q, want %q", task.Workload, task.Series, task.Cache, cacheTraced)
		}
		if len(task.Files) != 2 {
			t.Errorf("task %s/%s produced %d files, want pipetrace+intervals", task.Workload, task.Series, len(task.Files))
		}
	}

	files := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".manifest.json") {
			continue
		}
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
