// Package pipeline implements the cycle-level dynamically-scheduled
// superscalar processor model of the paper's Table 1, including mini-graph
// processing support (handle fetch, MGT-driven ALU-pipeline execution,
// outlined execution of disabled mini-graphs) and the Slack-Dynamic
// run-time serialization monitor.
//
// The model is trace-driven: it replays the committed dynamic instruction
// stream produced by the functional emulator. Branch mispredictions are
// modeled as fetch stalls until the branch resolves (no wrong-path
// execution); everything that delays branch resolution — including
// mini-graph serialization — therefore lengthens the misprediction penalty,
// which is the first-order interaction the paper's selectors must see.
package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
)

// Config describes one machine configuration.
type Config struct {
	Name string

	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	IQEntries  int
	PhysRegs   int // total physical registers (32 are architectural)
	ROBEntries int
	LQEntries  int
	SQEntries  int

	// Issue ports per cycle by class.
	SimplePorts  int
	ComplexPorts int
	LoadPorts    int
	StorePorts   int

	// Mini-graph issue constraints (Table 1): at most MaxMGIssue
	// mini-graphs per cycle, of which at most MaxMemMGIssue contain a
	// memory operation.
	MaxMGIssue    int
	MaxMemMGIssue int

	// Front-end and scheduling depths, from the paper's 13-stage pipe:
	// 1 predict + 3 I$ + 1 decode + 2 rename = 7 stages ahead of schedule;
	// 2 regread between issue and execute.
	FetchToRename int
	IssueToExec   int

	Hier  cache.HierConfig
	Bpred bpred.Config

	// StoreSets predictor entries.
	StoreSetEntries int

	// MaxCycles bounds runaway simulations (0 = default).
	MaxCycles int64
}

// DefaultMaxCycles bounds runaway simulations.
const DefaultMaxCycles = 1 << 33

// Baseline returns the fully-provisioned processor of Table 1: 4-way
// fetch/issue/commit, 30-entry issue queue, 144 physical registers; up to 4
// simple integer, 1 complex, 2 loads and 1 store issued per cycle.
func Baseline() Config {
	return Config{
		Name:            "baseline-4way",
		FetchWidth:      4,
		IssueWidth:      4,
		CommitWidth:     4,
		IQEntries:       30,
		PhysRegs:        144,
		ROBEntries:      128,
		LQEntries:       48,
		SQEntries:       32,
		SimplePorts:     4,
		ComplexPorts:    1,
		LoadPorts:       2,
		StorePorts:      1,
		MaxMGIssue:      2,
		MaxMemMGIssue:   1,
		FetchToRename:   6,
		IssueToExec:     2,
		Hier:            cache.DefaultHierConfig(),
		Bpred:           bpred.DefaultConfig(),
		StoreSetEntries: 1024,
	}
}

// Reduced returns the reduced processor of Table 1: 3-way
// fetch/issue/commit, 20-entry issue queue, 120 physical registers; up to 3
// simple integer, 1 complex, 1 load and 1 store issued per cycle.
func Reduced() Config {
	c := Baseline()
	c.Name = "reduced-3way"
	c.FetchWidth = 3
	c.IssueWidth = 3
	c.CommitWidth = 3
	c.IQEntries = 20
	c.PhysRegs = 120
	c.SimplePorts = 3
	c.LoadPorts = 1
	return c
}

// Width2 is the further-reduced 2-way profile-robustness configuration
// (Figure 9, "cross 2-way").
func Width2() Config {
	c := Baseline()
	c.Name = "cross-2way"
	c.FetchWidth = 2
	c.IssueWidth = 2
	c.CommitWidth = 2
	c.IQEntries = 16
	c.PhysRegs = 96
	c.SimplePorts = 2
	c.LoadPorts = 1
	return c
}

// Width8 is the 8-way profile-robustness configuration (Figure 9,
// "cross 8-way").
func Width8() Config {
	c := Baseline()
	c.Name = "cross-8way"
	c.FetchWidth = 8
	c.IssueWidth = 8
	c.CommitWidth = 8
	c.IQEntries = 64
	c.PhysRegs = 256
	c.SimplePorts = 8
	c.LoadPorts = 4
	c.StorePorts = 2
	return c
}

// ConfigByName maps a machine-configuration name — a short alias or the
// full Config.Name — to its Table 1 / Figure 9 machine. It is the one
// name lookup behind every CLI's -config flag.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "baseline", "baseline-4way", "full", "4way":
		return Baseline(), nil
	case "reduced", "reduced-3way", "3way":
		return Reduced(), nil
	case "width2", "cross-2way", "2way":
		return Width2(), nil
	case "width8", "cross-8way", "8way":
		return Width8(), nil
	case "dmem4", "cross-dmem4":
		return SmallDMem(), nil
	}
	return Config{}, fmt.Errorf("unknown machine configuration %q (want baseline, reduced, width2, width8, or dmem4)", name)
}

// SmallDMem is the reduced machine with a quarter-size data memory system
// (8KB L1D, 256KB L2) for Figure 9's "cross dmem/4" robustness point.
func SmallDMem() Config {
	c := Reduced()
	c.Name = "cross-dmem4"
	c.Hier.L1D.Size = 8 << 10
	c.Hier.L2.Size = 256 << 10
	return c
}
