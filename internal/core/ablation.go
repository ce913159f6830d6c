package core

import (
	"fmt"

	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/selector"
)

// The design-choice ablations are ordinary sweeps: each variant is a
// SeriesSpec that may vary the candidate-enumeration limits, the MGT
// template budget or the machine's mini-graph issue constraints, and runs
// through RunSweep like a figure's series. A variant that coincides with
// the defaults (e.g. "budget=512" equals the figures' Slack-Profile series)
// is not re-simulated.

// AblationMaxLen sweeps the mini-graph size limit (2–4 constituents) under
// Slack-Profile on the reduced machine: how much of the benefit needs
// longer aggregates?
func AblationMaxLen(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	var specs []SeriesSpec
	for _, n := range []int{2, 3, 4} {
		specs = append(specs, SeriesSpec{
			Label:  fmt.Sprintf("maxlen=%d", n),
			Cfg:    red,
			Sel:    selector.SlackProfile(),
			Limits: minigraph.Limits{MaxLen: n, MaxInputs: 3},
		})
	}
	return RunSweep("Ablation: mini-graph size limit (Slack-Profile, reduced machine)", opts, specs)
}

// AblationMaxInputs contrasts the original two-input mini-graphs (MICRO-04)
// with this paper's three-input extension (Section 2's design change).
func AblationMaxInputs(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Ablation: external register inputs (Slack-Profile, reduced machine)", opts, []SeriesSpec{
		{Label: "2 inputs (MICRO-04)", Cfg: red, Sel: selector.SlackProfile(), Limits: minigraph.Limits{MaxLen: 4, MaxInputs: 2}},
		{Label: "3 inputs (this paper)", Cfg: red, Sel: selector.SlackProfile(), Limits: minigraph.Limits{MaxLen: 4, MaxInputs: 3}},
	})
}

// AblationBudget sweeps the MGT template budget: how many templates does a
// program actually need?
func AblationBudget(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	var specs []SeriesSpec
	for _, b := range []int{4, 16, 64, 512} {
		specs = append(specs, SeriesSpec{
			Label:  fmt.Sprintf("budget=%d", b),
			Cfg:    red,
			Sel:    selector.SlackProfile(),
			Budget: b,
		})
	}
	return RunSweep("Ablation: MGT template budget (Slack-Profile, reduced machine)", opts, specs)
}

// AblationMGIssue sweeps the mini-graph issue constraints (Table 1 allows
// 2 per cycle, 1 with memory): is mini-graph issue bandwidth a bottleneck?
func AblationMGIssue(opts Options) (*SweepResult, error) {
	one := pipeline.Reduced()
	one.Name = "reduced-1mg"
	one.MaxMGIssue = 1
	two := pipeline.Reduced()
	four := pipeline.Reduced()
	four.Name = "reduced-4mg"
	four.MaxMGIssue = 4
	four.MaxMemMGIssue = 2
	return RunSweep("Ablation: mini-graph issue bandwidth (Slack-Profile)", opts, []SeriesSpec{
		{Label: "1 MG/cycle", Cfg: one, Sel: selector.SlackProfile()},
		{Label: "2 MG/cycle (Table 1)", Cfg: two, Sel: selector.SlackProfile()},
		{Label: "4 MG/cycle", Cfg: four, Sel: selector.SlackProfile()},
	})
}

// AblationSlackScope tests Section 4.3's "think globally, act locally"
// argument: rule #4 with local slack vs global slack budgets.
func AblationSlackScope(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Ablation: local vs global slack in rule #4 (reduced machine)", opts, []SeriesSpec{
		{Label: "local slack (paper)", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "global slack", Cfg: red, Sel: selector.SlackProfileGlobal()},
	})
}

// AblationLatencyModel contrasts the paper's optimistic rule-#2 latencies
// with profiled cache-aware latencies (the mcf footnote's future work).
func AblationLatencyModel(opts Options) (*SweepResult, error) {
	red := pipeline.Reduced()
	return RunSweep("Ablation: rule #2 latency model (reduced machine)", opts, []SeriesSpec{
		{Label: "optimistic (paper)", Cfg: red, Sel: selector.SlackProfile()},
		{Label: "profiled (future work)", Cfg: red, Sel: selector.SlackProfileMem()},
	})
}
