package pipeline

import (
	"context"
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/workload"
)

// The sampling-accuracy gate (run by `make ci` via the sampling-accuracy
// target): on a pinned set of small-input workloads, representative-mode
// estimates must stay within 1% geomean IPC error of the full detailed run
// while simulating at least 5x fewer instructions in detail.

// gateWorkloads pins the measured set: the longer small-input traces, spread
// across suites and behavior (branchy bitcount, search, generated kernels).
var gateWorkloads = []string{
	"embed.bitcount",
	"intx.gen10",
	"intx.gen05",
	"intx.bsearch",
	"media.gen02",
	"comm.gen05",
}

// gateSpec is the representative sampling configuration the gate measures:
// window == interval so each representative fully covers the interval it
// stands for (warm-up is implicit — representative mode functionally warms
// every window with the whole preceding trace), Clusters 0 so the window
// budget auto-scales to the 5x operating point.
var gateSpec = SampleSpec{
	Interval: 1000,
	Window:   1000,
	Mode:     SampleRepresentative,
}

func TestSamplingAccuracyGate(t *testing.T) {
	cfg := Baseline()
	var sumAbsLog float64
	for _, name := range gateWorkloads {
		w := workload.Find(name)
		p, _, _, err := w.Build("small")
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		res, err := emu.Run(p, emu.Options{CollectTrace: true})
		if err != nil {
			t.Fatalf("emulate %s: %v", name, err)
		}
		tr := res.Trace

		full, err := Run(p, tr, cfg, MGConfig{}, nil)
		if err != nil {
			t.Fatalf("full run %s: %v", name, err)
		}
		est, report, err := RunSampledReport(context.Background(), p, tr, cfg, MGConfig{}, gateSpec)
		if err != nil {
			t.Fatalf("sampled run %s: %v", name, err)
		}
		if report.Full {
			t.Fatalf("%s: trace too short for the gate spec (fell back to full run)", name)
		}

		ratio := est.IPC() / full.IPC()
		errPct := 100 * math.Abs(ratio-1)
		reduction := float64(len(tr)) / float64(report.DetailInstrs)
		t.Logf("%-16s full IPC %.4f  rep IPC %.4f  err %.2f%%  detail %d/%d (%.1fx)  windows %d  errbound %.3f",
			name, full.IPC(), est.IPC(), errPct, report.DetailInstrs, len(tr), reduction, report.Windows, report.ErrBound)
		if reduction < 5 {
			t.Errorf("%s: only %.1fx fewer detailed instructions (want >=5x)", name, reduction)
		}
		sumAbsLog += math.Abs(math.Log(ratio))
	}
	geomeanErr := math.Exp(sumAbsLog/float64(len(gateWorkloads))) - 1
	t.Logf("geomean IPC error: %.3f%%", 100*geomeanErr)
	if geomeanErr >= 0.01 {
		t.Errorf("geomean IPC error %.2f%% (want < 1%%)", 100*geomeanErr)
	}
}
