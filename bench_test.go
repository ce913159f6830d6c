// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation. Each benchmark runs the corresponding
// experiment sweep and reports the headline numbers the paper reports as
// benchmark metrics (relative performance and coverage means), so
// `go test -bench=. -benchmem` reproduces the evaluation end to end.
//
// The sweeps use the "small" input set to keep benchmark iterations
// tractable; `cmd/mgreport` runs the same experiments on the "large" set.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// benchOpts are the sweep options used by the figure benchmarks.
func benchOpts() core.Options {
	return core.Options{Input: "small"}
}

// reportSeries attaches a sweep's per-series means as benchmark metrics.
func reportSeries(b *testing.B, res *core.SweepResult, metric map[string]string) {
	for label, name := range metric {
		s := res.Perf.Get(label)
		if s == nil {
			b.Fatalf("missing series %q", label)
		}
		b.ReportMetric(s.Mean(), name+"_relperf")
		if c := res.Coverage.Get(label); c != nil && c.Mean() > 0 {
			b.ReportMetric(c.Mean(), name+"_coverage")
		}
	}
}

// BenchmarkTable1Configs times the two Table 1 machines on one
// representative workload and reports the reduced machine's slowdown.
func BenchmarkTable1Configs(b *testing.B) {
	b.ReportAllocs()
	bench, err := core.PrepareByName("media.dct8", "small")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		full, err := bench.RunSingleton(pipeline.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		red, err := bench.RunSingleton(pipeline.Reduced())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(full.Cycles)/float64(red.Cycles), "reduced_relperf")
		b.ReportMetric(full.IPC(), "baseline_IPC")
	}
}

// BenchmarkFig1SlackProfile regenerates Figure 1: Slack-Profile vs the two
// naive selectors on the reduced machine over all 78 programs.
func BenchmarkFig1SlackProfile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, res, map[string]string{
			"no mini-graphs": "nomg",
			"Struct-All":     "structall",
			"Struct-None":    "structnone",
			"Slack-Profile":  "slackprofile",
		})
	}
}

// BenchmarkFig3NaiveSelectors regenerates Figure 3 (both graphs).
func BenchmarkFig3NaiveSelectors(b *testing.B) {
	b.ReportAllocs()
	b.Run("top_reduced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Fig3Top(benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			reportSeries(b, res, map[string]string{
				"no mini-graphs": "nomg",
				"Struct-All":     "structall",
				"Struct-None":    "structnone",
			})
		}
	})
	b.Run("bottom_full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Fig3Bottom(benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			reportSeries(b, res, map[string]string{
				"Struct-All":  "structall",
				"Struct-None": "structnone",
			})
		}
	})
}

// BenchmarkFig6AllSelectors regenerates Figure 6 (top and middle graphs
// plus the coverage panel, reported as metrics).
func BenchmarkFig6AllSelectors(b *testing.B) {
	b.ReportAllocs()
	metrics := map[string]string{
		"no mini-graphs": "nomg",
		"Struct-All":     "structall",
		"Struct-None":    "structnone",
		"Struct-Bounded": "structbounded",
		"Slack-Profile":  "slackprofile",
		"Slack-Dynamic":  "slackdynamic",
	}
	b.Run("top_reduced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Fig6Top(benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			reportSeries(b, res, metrics)
		}
	})
	b.Run("middle_full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Fig6Middle(benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			reportSeries(b, res, metrics)
		}
	})
}

// BenchmarkFig7SlackProfileBreakdown regenerates Figure 7 (top).
func BenchmarkFig7SlackProfileBreakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Fig7Top(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, res, map[string]string{
			"Slack-Profile":       "full",
			"Slack-Profile-Delay": "delay",
			"Slack-Profile-SIAL":  "sial",
		})
	}
}

// BenchmarkFig7SlackDynamicBreakdown regenerates Figure 7 (bottom).
func BenchmarkFig7SlackDynamicBreakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Fig7Bottom(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, res, map[string]string{
			"Slack-Dynamic":             "dynamic",
			"Ideal-Slack-Dynamic":       "ideal",
			"Ideal-Slack-Dynamic-Delay": "ideal_delay",
			"Ideal-Slack-Dynamic-SIAL":  "ideal_sial",
		})
	}
}

// BenchmarkFig8LimitStudy regenerates Figure 8: the exhaustive
// 1024-combination search on the adpcm benchmark.
func BenchmarkFig8LimitStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lr, err := core.LimitStudy("media.adpcm_enc", core.Options{Input: "small"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lr.Best.RelPerf, "best_relperf")
		b.ReportMetric(lr.Best.Coverage, "best_coverage")
		b.ReportMetric(lr.Points[lr.Choices["Slack-Profile"]].RelPerf, "slackprofile_relperf")
		b.ReportMetric(lr.Points[lr.Choices["Struct-All"]].RelPerf, "structall_relperf")
	}
}

// BenchmarkFig9CrossConfig regenerates Figure 9 (top): profile robustness
// to machine configuration.
func BenchmarkFig9CrossConfig(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Fig9Top(core.Options{Input: "small"})
		if err != nil {
			b.Fatal(err)
		}
		self := res.Perf.Get("self-trained")
		for _, label := range []string{"cross 2-way", "cross 8-way", "cross dmem/4"} {
			cross := res.Perf.Get(label)
			b.ReportMetric(cross.Mean()/self.Mean(), map[string]string{
				"cross 2-way": "cross2_ratio", "cross 8-way": "cross8_ratio", "cross dmem/4": "crossdmem_ratio",
			}[label])
		}
	}
}

// BenchmarkFig9CrossInput regenerates Figure 9 (bottom): profile
// robustness to input data sets (selection trained on "small", evaluated
// on "large").
func BenchmarkFig9CrossInput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Fig9Bottom(core.Options{Input: "large"})
		if err != nil {
			b.Fatal(err)
		}
		self := res.Perf.Get("self-trained")
		cross := res.Perf.Get("cross-input")
		b.ReportMetric(cross.Mean()/self.Mean(), "crossinput_ratio")
	}
}

// BenchmarkAblations runs the design-choice ablations called out in
// DESIGN.md: mini-graph size limit, input-count limit (the MICRO-04 vs
// MICRO-06 interface), MGT template budget, mini-graph issue bandwidth,
// and the rule-#2 latency model.
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	cases := []struct {
		name   string
		fn     func(core.Options) (*core.SweepResult, error)
		labels map[string]string
	}{
		{"MaxLen", core.AblationMaxLen,
			map[string]string{"maxlen=2": "len2", "maxlen=4": "len4"}},
		{"MaxInputs", core.AblationMaxInputs,
			map[string]string{"2 inputs (MICRO-04)": "in2", "3 inputs (this paper)": "in3"}},
		{"Budget", core.AblationBudget,
			map[string]string{"budget=4": "b4", "budget=512": "b512"}},
		{"MGIssue", core.AblationMGIssue,
			map[string]string{"1 MG/cycle": "mg1", "2 MG/cycle (Table 1)": "mg2"}},
		{"LatencyModel", core.AblationLatencyModel,
			map[string]string{"optimistic (paper)": "optimistic", "profiled (future work)": "profiled"}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := c.fn(benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				reportSeries(b, res, c.labels)
			}
		})
	}
}
