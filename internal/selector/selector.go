// Package selector implements the paper's mini-graph selection policies:
//
//	Struct-All      — admit every candidate (serialization-blind, maximal
//	                  coverage; Section 3).
//	Struct-None     — reject every potentially-serializing candidate
//	                  (serialization-blind, conservative; Section 3).
//	Struct-Bounded  — admit candidates whose serialization delay is bounded
//	                  by inspection of dataflow structure (Section 4.2).
//	Slack-Profile   — use local slack profiles and the paper's four rules to
//	                  reject candidates whose estimated delay cannot be
//	                  absorbed (Section 4.3).
//	Slack-Dynamic   — admit everything statically and let the hardware
//	                  monitor disable harmful templates (Section 4.4).
//
// Plus the ablation variants of Sections 5.2 and 5.3: Slack-Profile-Delay,
// Slack-Profile-SIAL, Ideal-Slack-Dynamic, Ideal-Slack-Dynamic-Delay and
// Ideal-Slack-Dynamic-SIAL.
package selector

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/isa"
	"repro/internal/minigraph"
	"repro/internal/prog"
	"repro/internal/slack"
)

// DynOptions configures the Slack-Dynamic hardware monitor for a policy
// (mirrored into pipeline.MGConfig by the orchestration layer).
type DynOptions struct {
	Dynamic        bool // enable the run-time monitor
	DelayOnly      bool // consider serialization delay only (no rule #4)
	SIAL           bool // serial-input-arrives-last heuristic detection
	IdealOutlining bool // disabled mini-graphs execute penalty-free
}

// Selector is one selection policy.
type Selector struct {
	name         string
	needsProfile bool
	filter       func(p *prog.Program, cands []*minigraph.Candidate, prof *slack.Profile) []*minigraph.Candidate

	// Dyn holds the hardware-monitor options this policy requires.
	Dyn DynOptions
}

// Name returns the policy's paper name.
func (s *Selector) Name() string { return s.name }

// NeedsProfile reports whether the policy requires a slack profile.
func (s *Selector) NeedsProfile() bool { return s.needsProfile }

// Pool filters the candidate pool according to the policy. prof may be nil
// for policies with NeedsProfile() == false.
func (s *Selector) Pool(p *prog.Program, cands []*minigraph.Candidate, prof *slack.Profile) []*minigraph.Candidate {
	return s.filter(p, cands, prof)
}

func keepAll(_ *prog.Program, cands []*minigraph.Candidate, _ *slack.Profile) []*minigraph.Candidate {
	return cands
}

func keepIf(pred func(*minigraph.Candidate) bool) func(*prog.Program, []*minigraph.Candidate, *slack.Profile) []*minigraph.Candidate {
	return func(_ *prog.Program, cands []*minigraph.Candidate, _ *slack.Profile) []*minigraph.Candidate {
		var out []*minigraph.Candidate
		for _, c := range cands {
			if pred(c) {
				out = append(out, c)
			}
		}
		return out
	}
}

// StructAll admits every candidate.
func StructAll() *Selector {
	return &Selector{name: "Struct-All", filter: keepAll}
}

// StructNone rejects every potentially-serializing candidate.
func StructNone() *Selector {
	return &Selector{
		name:   "Struct-None",
		filter: keepIf(func(c *minigraph.Candidate) bool { return !c.Serializing() }),
	}
}

// StructBounded rejects only candidates with statically unbounded
// serialization delay on their register output.
func StructBounded() *Selector {
	return &Selector{
		name:   "Struct-Bounded",
		filter: keepIf((*minigraph.Candidate).BoundedSerialization),
	}
}

// SlackProfile is the paper's full profile-driven selector (rules #1–#4).
func SlackProfile() *Selector {
	return &Selector{
		name:         "Slack-Profile",
		needsProfile: true,
		filter:       slackFilter(ModeFull),
	}
}

// SlackProfileDelay is the rule-#4-less ablation: reject any candidate
// whose output is delayed at all, absorbable or not.
func SlackProfileDelay() *Selector {
	return &Selector{
		name:         "Slack-Profile-Delay",
		needsProfile: true,
		filter:       slackFilter(ModeDelay),
	}
}

// SlackProfileSIAL is the operand-arrival-order heuristic (macro-op
// scheduling's filter) applied to the same profile data.
func SlackProfileSIAL() *Selector {
	return &Selector{
		name:         "Slack-Profile-SIAL",
		needsProfile: true,
		filter:       slackFilter(ModeSIAL),
	}
}

// SlackProfileMem is Slack-Profile with cache-aware execution latencies in
// rule #2 (the extension the paper's mcf footnote leaves as future work):
// load constituents are charged their profiled average latency, so
// candidates containing missing loads are modeled with their real delays.
func SlackProfileMem() *Selector {
	return &Selector{
		name:         "Slack-Profile-Mem",
		needsProfile: true,
		filter:       slackFilter(ModeMemLat),
	}
}

// SlackProfileGlobal budgets register outputs by *global* slack instead of
// local slack. Section 4.3 argues global slack is the worse signal for
// selecting many mini-graphs at once (the critical path it is relative to
// shifts as each mini-graph lands); this selector exists to test that.
func SlackProfileGlobal() *Selector {
	return &Selector{
		name:         "Slack-Profile-Global",
		needsProfile: true,
		filter:       slackFilter(ModeGlobal),
	}
}

// SlackDynamic admits everything statically; the hardware monitor disables
// harmful templates at run time (outlined execution penalty applies).
func SlackDynamic() *Selector {
	return &Selector{
		name:   "Slack-Dynamic",
		filter: keepAll,
		Dyn:    DynOptions{Dynamic: true},
	}
}

// IdealSlackDynamic removes the outlining penalty from Slack-Dynamic.
func IdealSlackDynamic() *Selector {
	return &Selector{
		name:   "Ideal-Slack-Dynamic",
		filter: keepAll,
		Dyn:    DynOptions{Dynamic: true, IdealOutlining: true},
	}
}

// IdealSlackDynamicDelay is penalty-free Slack-Dynamic considering only
// serialization delay (no consumer-impact check).
func IdealSlackDynamicDelay() *Selector {
	return &Selector{
		name:   "Ideal-Slack-Dynamic-Delay",
		filter: keepAll,
		Dyn:    DynOptions{Dynamic: true, IdealOutlining: true, DelayOnly: true},
	}
}

// IdealSlackDynamicSIAL is penalty-free Slack-Dynamic with the
// operand-arrival-order heuristic.
func IdealSlackDynamicSIAL() *Selector {
	return &Selector{
		name:   "Ideal-Slack-Dynamic-SIAL",
		filter: keepAll,
		Dyn:    DynOptions{Dynamic: true, IdealOutlining: true, SIAL: true},
	}
}

// SlackDynamicDelay is Slack-Dynamic (with outlining penalties) considering
// only serialization delay.
func SlackDynamicDelay() *Selector {
	return &Selector{
		name:   "Slack-Dynamic-Delay",
		filter: keepAll,
		Dyn:    DynOptions{Dynamic: true, DelayOnly: true},
	}
}

// Subset admits exactly the given candidates of the pool it filters,
// matched by start and length: the Figure 8 limit study evaluates one fixed
// combination per series. The name spells the combination out, e.g.
// "Subset{12+3,40+4}", so memoized selections and task keys of different
// subsets stay apart.
func Subset(cands []*minigraph.Candidate) *Selector {
	type window struct{ start, n int }
	keep := make(map[window]bool, len(cands))
	parts := make([]string, len(cands))
	for i, c := range cands {
		keep[window{c.Start, c.N}] = true
		parts[i] = fmt.Sprintf("%d+%d", c.Start, c.N)
	}
	return &Selector{
		name:   "Subset{" + strings.Join(parts, ",") + "}",
		filter: keepIf(func(c *minigraph.Candidate) bool { return keep[window{c.Start, c.N}] }),
	}
}

// Main returns the paper's five primary selectors in presentation order.
func Main() []*Selector {
	return []*Selector{StructAll(), StructNone(), StructBounded(), SlackProfile(), SlackDynamic()}
}

// ByName returns the policy with the given paper name. "none" and "" name
// singleton execution and return nil; any other unknown name is an error.
func ByName(name string) (*Selector, error) {
	if name == "none" || name == "" {
		return nil, nil
	}
	all := []*Selector{
		StructAll(), StructNone(), StructBounded(),
		SlackProfile(), SlackProfileDelay(), SlackProfileSIAL(), SlackProfileMem(), SlackProfileGlobal(),
		SlackDynamic(), SlackDynamicDelay(),
		IdealSlackDynamic(), IdealSlackDynamicDelay(), IdealSlackDynamicSIAL(),
	}
	names := make([]string, len(all))
	for i, s := range all {
		if s.Name() == name {
			return s, nil
		}
		names[i] = s.Name()
	}
	return nil, fmt.Errorf("unknown selector %q (want none or one of %v)", name, names)
}

// --- Slack-Profile rule evaluation ---

// Mode selects which subset of the Slack-Profile model a filter applies.
type Mode int

// Slack-Profile model variants (Section 5.2), plus ModeMemLat — the
// paper's future-work extension that charges profiled (cache-aware)
// execution latencies in rule #2.
const (
	ModeFull   Mode = iota // rules #1–#4
	ModeDelay              // rules #1–#3; reject on any output delay
	ModeSIAL               // operand arrival order only
	ModeMemLat             // rules #1–#4 with profiled latencies
	ModeGlobal             // rule #4 budgets register outputs by global slack
)

// delayEps tolerates floating-point fuzz in averaged profile times: an
// output is "delayed" only if its computed delay exceeds its budget by more
// than half a cycle.
const delayEps = 0.5

func slackFilter(mode Mode) func(*prog.Program, []*minigraph.Candidate, *slack.Profile) []*minigraph.Candidate {
	return func(p *prog.Program, cands []*minigraph.Candidate, prof *slack.Profile) []*minigraph.Candidate {
		var out []*minigraph.Candidate
		for _, c := range cands {
			if !Degrades(p, c, prof, mode) {
				out = append(out, c)
			}
		}
		return out
	}
}

// Eval computes the paper's rules #1–#3 for a candidate against a profile:
// the mini-graph issue time of each constituent and the induced delay of
// each constituent relative to its profiled singleton issue time. All times
// are relative to the candidate's basic-block head issue time. Returns
// ok=false when the profile has no data for the candidate (it never
// executed), in which case the candidate is harmless.
func Eval(p *prog.Program, c *minigraph.Candidate, prof *slack.Profile) (issueMG, delay []float64, ok bool) {
	return evalLat(p, c, prof, false)
}

// EvalProfiledLatencies is Eval with rule #2 charging each constituent its
// *profiled* average execution latency (which includes observed cache-miss
// time) instead of the optimistic static latency. This implements the
// remedy the paper's mcf footnote leaves for future work.
func EvalProfiledLatencies(p *prog.Program, c *minigraph.Candidate, prof *slack.Profile) (issueMG, delay []float64, ok bool) {
	return evalLat(p, c, prof, true)
}

func evalLat(p *prog.Program, c *minigraph.Candidate, prof *slack.Profile, profiledLat bool) (issueMG, delay []float64, ok bool) {
	if prof == nil || !prof.Valid(c.Start) {
		return nil, nil, false
	}
	// Rule #1: external serialization. The mini-graph issues when the
	// first instruction could issue and every external input is ready.
	issue0 := prof.Issue[c.Start]
	t := issue0
	for i, r := range c.ExternalIns {
		ready, found := inputReady(p, c, prof, i, r)
		if found && ready > t {
			t = ready
		}
	}
	issueMG = make([]float64, c.N)
	delay = make([]float64, c.N)
	for k := 0; k < c.N; k++ {
		// Rule #2: internal serialization — constituent k issues when its
		// predecessor's execution latency has elapsed.
		issueMG[k] = t
		lat := optimisticLat(p.Code[c.Start+k].Op)
		if profiledLat {
			if pl := prof.ExecLat[c.Start+k]; !math.IsNaN(pl) && pl > lat {
				lat = pl
			}
		}
		t += lat
		// Rule #3: instruction delay.
		singleton := prof.Issue[c.Start+k]
		if math.IsNaN(singleton) {
			singleton = issue0
		}
		delay[k] = issueMG[k] - singleton
	}
	return issueMG, delay, true
}

// inputReady returns the profiled ready time of external input i of the
// candidate (relative to the block head), located at its first consumer.
func inputReady(p *prog.Program, c *minigraph.Candidate, prof *slack.Profile, i int, r isa.Reg) (float64, bool) {
	k := c.FirstUse[i]
	in := p.Code[c.Start+k]
	var v float64 = math.NaN()
	switch r {
	case in.Rs1:
		v = prof.SrcReady[c.Start+k][0]
	case in.Rs2:
		v = prof.SrcReady[c.Start+k][1]
	}
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// optimisticLat is the execution latency rule #2 charges per constituent.
// Loads are charged the L1-hit latency; cache misses are deliberately not
// modeled (the paper's footnote about mcf notes this limitation).
func optimisticLat(op isa.Op) float64 {
	switch {
	case isa.ClassOf(op) == isa.ClassLoad:
		return 4 // 1 agen + 3-cycle L1 hit
	default:
		return float64(isa.Latency(op))
	}
}

// Degrades applies the policy's rejection rule to one candidate.
func Degrades(p *prog.Program, c *minigraph.Candidate, prof *slack.Profile, mode Mode) bool {
	if prof == nil || !prof.Valid(c.Start) {
		return false // never executed: harmless
	}
	if mode == ModeSIAL {
		return serialInputArrivesLast(p, c, prof)
	}
	var delay []float64
	var ok bool
	if mode == ModeMemLat {
		_, delay, ok = EvalProfiledLatencies(p, c, prof)
	} else {
		_, delay, ok = Eval(p, c, prof)
	}
	if !ok {
		return false
	}
	check := func(k int, budget float64) bool {
		if math.IsNaN(budget) {
			budget = slack.BigSlack
		}
		if mode == ModeDelay {
			budget = 0
		}
		return delay[k] > budget+delayEps
	}
	// Rule #4: a mini-graph degrades performance if any output's delay
	// exceeds that output's slack budget (local slack, or global slack for
	// the ModeGlobal ablation of Section 4.3's argument).
	if c.OutputIdx >= 0 {
		budget := prof.RegSlack[c.Start+c.OutputIdx]
		if mode == ModeGlobal {
			budget = prof.GlobalRegSlack[c.Start+c.OutputIdx]
		}
		if check(c.OutputIdx, budget) {
			return true
		}
	}
	if c.MemIdx >= 0 && p.Code[c.Start+c.MemIdx].IsStore() &&
		check(c.MemIdx, prof.StoreSlack[c.Start+c.MemIdx]) {
		return true
	}
	if c.CtrlIdx >= 0 && check(c.CtrlIdx, prof.BranchSlack[c.Start+c.CtrlIdx]) {
		return true
	}
	return false
}

// serialInputArrivesLast reports whether the candidate's last-arriving
// external input is a serializing one (the SIAL heuristic).
func serialInputArrivesLast(p *prog.Program, c *minigraph.Candidate, prof *slack.Profile) bool {
	if !c.Serializing() {
		return false
	}
	best := math.Inf(-1)
	bestSer := false
	for i, r := range c.ExternalIns {
		ready, found := inputReady(p, c, prof, i, r)
		if !found {
			ready = 0
		}
		if ready > best {
			best = ready
			bestSer = c.FirstUse[i] > 0
		}
	}
	return bestSer
}
