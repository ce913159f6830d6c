package pipeline

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/prog"
	"repro/internal/slack"
	"repro/internal/workload"
)

func benchSetup(b *testing.B, name string) (*workloadBench, error) {
	b.Helper()
	w := workload.Find(name)
	if w == nil {
		b.Fatalf("workload %s not found", name)
	}
	p, _, _, err := w.Build("small")
	if err != nil {
		return nil, err
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		return nil, err
	}
	freq := make([]int64, p.NumInstrs())
	for _, r := range res.Trace {
		freq[r.Index]++
	}
	sel := minigraph.Select(p, minigraph.Enumerate(p, minigraph.DefaultLimits()), freq, minigraph.DefaultSelectConfig())
	return &workloadBench{p: p, tr: res.Trace, sel: sel}, nil
}

type workloadBench struct {
	p   *prog.Program
	tr  []emu.Rec
	sel *minigraph.Selection
}

// reportNsPerInstr reports the time per simulated instruction. Unlike
// ns/op, it compares across workloads, machines and trace lengths.
func reportNsPerInstr(b *testing.B, instrs int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkSimulatorSingleton measures raw cycle-level simulation speed.
func BenchmarkSimulatorSingleton(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Baseline()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		st, err := Run(wb.p, wb.tr, cfg, MGConfig{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	reportNsPerInstr(b, instrs)
}

// BenchmarkSimulatorMiniGraphs measures simulation speed with mini-graph
// aggregation active.
func BenchmarkSimulatorMiniGraphs(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Reduced()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		st, err := Run(wb.p, wb.tr, cfg, MGConfig{Selection: wb.sel}, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	reportNsPerInstr(b, instrs)
}

// BenchmarkSimulatorMiniGraphsScan measures the reference per-cycle scan
// scheduler (the differential tests' reference) on the same configuration,
// so the event scheduler's speedup is visible in one benchmark run.
func BenchmarkSimulatorMiniGraphsScan(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Reduced()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		st, err := runSched(wb.p, wb.tr, cfg, MGConfig{Selection: wb.sel}, nil, nil, SchedScan)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	reportNsPerInstr(b, instrs)
}

// BenchmarkSimulatorProfiling measures the slack-profiling run (the most
// instrumented configuration), accumulator included.
func BenchmarkSimulatorProfiling(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Reduced()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		acc := slack.NewAccumulator("bench", wb.p.NumInstrs())
		st, err := Run(wb.p, wb.tr, cfg, MGConfig{}, acc)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	reportNsPerInstr(b, instrs)
}

// BenchmarkRunSampledRepresentative measures the representative-interval
// estimator end to end — feature extraction, k-means, warm replay and the
// detailed windows — against BenchmarkSimulatorSingleton's full run on the
// same workload; the ratio of their ns/instr is the sweep-service speedup
// this mode buys. Its ns/instr counts the instructions the estimate stands
// for, not the ones simulated in detail.
func BenchmarkRunSampledRepresentative(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Baseline()
	spec := SampleSpec{Interval: 1000, Window: 1000, Mode: SampleRepresentative}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		st, _, err := RunSampledReport(context.Background(), wb.p, wb.tr, cfg, MGConfig{}, spec)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	reportNsPerInstr(b, instrs)
}

// BenchmarkSimulatorSlackDynamic measures the run-time monitor overhead.
func BenchmarkSimulatorSlackDynamic(b *testing.B) {
	b.ReportAllocs()
	wb, err := benchSetup(b, "media.dct8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Reduced()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		st, err := Run(wb.p, wb.tr, cfg, MGConfig{Selection: wb.sel, Dynamic: true}, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	reportNsPerInstr(b, instrs)
}
