package selector

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/minigraph"
	"repro/internal/prog"
	"repro/internal/slack"
)

// fig5Program reconstructs the paper's Figure 5 worked example. One basic
// block: A, C, B, D, E, F where the candidate mini-graph is BDE:
//
//	A: rA <- ...        (head; produces the input ready at cycle 2)
//	C: rC <- ...        (produces the serializing input ready at cycle 6)
//	B: rB <- rA + 1     (first constituent)
//	D: rD <- rB + rC    (serializing input rC consumed here)
//	E: rE <- rD + 1     (register output)
//	F: store rE         (external consumer)
const (
	rA, rC, rB, rD, rE isa.Reg = 1, 2, 3, 4, 5
)

func fig5Program(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("fig5")
	b.Addi(rA, 10, 1)    // 0: A
	b.Addi(rC, 11, 1)    // 1: C
	b.Addi(rB, rA, 1)    // 2: B
	b.Add(rD, rB, rC)    // 3: D
	b.Addi(rE, rD, 1)    // 4: E
	b.Stw(rE, isa.SP, 0) // 5: F
	b.Halt()
	return b.MustBuild()
}

// fig5Profile fabricates the singleton schedule in Figure 5: A's value
// ready at 2, C's at 6; B/D/E issue at 2/6/7 as singletons.
func fig5Profile(p *prog.Program, eSlack float64) *slack.Profile {
	n := p.NumInstrs()
	prof := &slack.Profile{
		Name:           "fig5",
		Count:          make([]int64, n),
		Issue:          make([]float64, n),
		Ready:          make([]float64, n),
		SrcReady:       make([][2]float64, n),
		ExecLat:        make([]float64, n),
		RegSlack:       make([]float64, n),
		StoreSlack:     make([]float64, n),
		BranchSlack:    make([]float64, n),
		GlobalRegSlack: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		prof.Count[i] = 100
		prof.SrcReady[i] = [2]float64{math.NaN(), math.NaN()}
		prof.RegSlack[i] = math.NaN()
		prof.StoreSlack[i] = math.NaN()
		prof.BranchSlack[i] = math.NaN()
		prof.GlobalRegSlack[i] = math.NaN()
		prof.ExecLat[i] = 1
	}
	prof.Issue[0], prof.Ready[0] = 0, 2 // A
	prof.Issue[1], prof.Ready[1] = 3, 6 // C
	prof.Issue[2], prof.Ready[2] = 2, 3 // B (rA ready 2)
	prof.SrcReady[2][0] = 2             // B reads rA
	prof.Issue[3], prof.Ready[3] = 6, 7 // D waits for rC
	prof.SrcReady[3][0] = 3             // rB
	prof.SrcReady[3][1] = 6             // rC — the serializing input
	prof.Issue[4], prof.Ready[4] = 7, 8 // E
	prof.SrcReady[4][0] = 7
	prof.RegSlack[4] = eSlack
	prof.Issue[5] = 8 // F
	prof.SrcReady[5][1] = 8
	return prof
}

func bde(t *testing.T, p *prog.Program) *minigraph.Candidate {
	t.Helper()
	for _, c := range minigraph.Enumerate(p, minigraph.DefaultLimits()) {
		if c.Start == 2 && c.N == 3 {
			return c
		}
	}
	t.Fatal("BDE candidate not found")
	return nil
}

func TestFig5RuleCalculation(t *testing.T) {
	p := fig5Program(t)
	c := bde(t, p)
	prof := fig5Profile(p, 0)

	issueMG, delay, ok := Eval(p, c, prof)
	if !ok {
		t.Fatal("Eval found no profile data")
	}
	// Rule #1: Issue_MG(B) = max(Ready(rA)=2, Ready(rC)=6, Issue(B)=2) = 6.
	if issueMG[0] != 6 {
		t.Errorf("Issue_MG(B) = %v, want 6", issueMG[0])
	}
	// Rule #2: D at 7, E at 8.
	if issueMG[1] != 7 || issueMG[2] != 8 {
		t.Errorf("Issue_MG(D,E) = %v,%v, want 7,8", issueMG[1], issueMG[2])
	}
	// Rule #3: Delay(E) = 8 - 7 = 1.
	if delay[2] != 1 {
		t.Errorf("Delay(E) = %v, want 1", delay[2])
	}
}

func TestFig5Rejection(t *testing.T) {
	p := fig5Program(t)
	c := bde(t, p)
	// E has zero local slack: delay 1 propagates to F -> reject.
	if !Degrades(p, c, fig5Profile(p, 0), ModeFull) {
		t.Error("BDE with slack(E)=0 must degrade")
	}
	// With 3 cycles of slack on E, the delay is absorbed -> accept.
	if Degrades(p, c, fig5Profile(p, 3), ModeFull) {
		t.Error("BDE with slack(E)=3 must be absorbed")
	}
}

func TestDelayModeIgnoresSlack(t *testing.T) {
	p := fig5Program(t)
	c := bde(t, p)
	// Even with plenty of slack, ModeDelay rejects any delayed output.
	if !Degrades(p, c, fig5Profile(p, 10), ModeDelay) {
		t.Error("Slack-Profile-Delay must reject a delayed output regardless of slack")
	}
}

func TestSIALMode(t *testing.T) {
	p := fig5Program(t)
	c := bde(t, p)
	prof := fig5Profile(p, 10)
	// rC (serializing) arrives at 6, after rA at 2: serial input last.
	if !Degrades(p, c, prof, ModeSIAL) {
		t.Error("SIAL must reject when the serializing input arrives last")
	}
	// Flip arrival order: rC early, rA late.
	prof.SrcReady[2][0] = 9
	prof.SrcReady[3][1] = 1
	if Degrades(p, c, prof, ModeSIAL) {
		t.Error("SIAL must accept when the serializing input arrives first")
	}
}

func TestUnprofiledCandidateHarmless(t *testing.T) {
	p := fig5Program(t)
	c := bde(t, p)
	prof := fig5Profile(p, 0)
	for i := range prof.Count {
		prof.Count[i] = 0
	}
	if Degrades(p, c, prof, ModeFull) {
		t.Error("never-executed candidate must be accepted (it cannot hurt)")
	}
}

// TestSelectorNamesAndProfiles pins every constructor's name and needs, and
// that ByName resolves each name — a superset of every -selector and
// -attribsel value a CLI accepts — back to the same policy.
func TestSelectorNamesAndProfiles(t *testing.T) {
	cases := []struct {
		s       *Selector
		name    string
		profile bool
		dynamic bool
	}{
		{StructAll(), "Struct-All", false, false},
		{StructNone(), "Struct-None", false, false},
		{StructBounded(), "Struct-Bounded", false, false},
		{SlackProfile(), "Slack-Profile", true, false},
		{SlackProfileDelay(), "Slack-Profile-Delay", true, false},
		{SlackProfileSIAL(), "Slack-Profile-SIAL", true, false},
		{SlackProfileMem(), "Slack-Profile-Mem", true, false},
		{SlackProfileGlobal(), "Slack-Profile-Global", true, false},
		{SlackDynamic(), "Slack-Dynamic", false, true},
		{IdealSlackDynamic(), "Ideal-Slack-Dynamic", false, true},
		{IdealSlackDynamicDelay(), "Ideal-Slack-Dynamic-Delay", false, true},
		{IdealSlackDynamicSIAL(), "Ideal-Slack-Dynamic-SIAL", false, true},
		{SlackDynamicDelay(), "Slack-Dynamic-Delay", false, true},
	}
	for _, c := range cases {
		if c.s.Name() != c.name {
			t.Errorf("name = %q, want %q", c.s.Name(), c.name)
		}
		if c.s.NeedsProfile() != c.profile {
			t.Errorf("%s NeedsProfile = %v", c.name, c.s.NeedsProfile())
		}
		if c.s.Dyn.Dynamic != c.dynamic {
			t.Errorf("%s Dynamic = %v", c.name, c.s.Dyn.Dynamic)
		}
		got, err := ByName(c.name)
		if err != nil || got == nil {
			t.Errorf("ByName(%q) = %v, %v", c.name, got, err)
		} else if got.Name() != c.name || got.NeedsProfile() != c.profile || got.Dyn != c.s.Dyn {
			t.Errorf("ByName(%q) resolved to %q (profile %v, dyn %+v)", c.name, got.Name(), got.NeedsProfile(), got.Dyn)
		}
	}
	for _, name := range []string{"none", ""} {
		if s, err := ByName(name); s != nil || err != nil {
			t.Errorf("ByName(%q) = %v, %v; want singleton execution (nil, nil)", name, s, err)
		}
	}
	for _, name := range []string{"nope", "None", "struct-all"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted an unknown policy", name)
		}
	}
	if len(Main()) != 5 {
		t.Errorf("Main() returns %d selectors, want 5", len(Main()))
	}
}

func TestPoolOrdering(t *testing.T) {
	p := fig5Program(t)
	cands := minigraph.Enumerate(p, minigraph.DefaultLimits())
	all := StructAll().Pool(p, cands, nil)
	none := StructNone().Pool(p, cands, nil)
	bounded := StructBounded().Pool(p, cands, nil)
	if len(all) != len(cands) {
		t.Error("Struct-All must keep everything")
	}
	// Struct-None ⊆ Struct-Bounded ⊆ Struct-All.
	if !(len(none) <= len(bounded) && len(bounded) <= len(all)) {
		t.Errorf("pool sizes none=%d bounded=%d all=%d violate subset ordering",
			len(none), len(bounded), len(all))
	}
	for _, c := range none {
		if c.Serializing() {
			t.Errorf("Struct-None admitted serializing candidate %v", c)
		}
	}
	for _, c := range bounded {
		if !c.BoundedSerialization() {
			t.Errorf("Struct-Bounded admitted unbounded candidate %v", c)
		}
	}
}

func TestSlackProfilePoolBetweenExtremes(t *testing.T) {
	p := fig5Program(t)
	cands := minigraph.Enumerate(p, minigraph.DefaultLimits())
	prof := fig5Profile(p, 0)
	sp := SlackProfile().Pool(p, cands, prof)
	spd := SlackProfileDelay().Pool(p, cands, prof)
	// Slack-Profile-Delay generates a strictly smaller (or equal) pool.
	if len(spd) > len(sp) {
		t.Errorf("Delay pool (%d) should be <= full pool (%d)", len(spd), len(sp))
	}
}

// TestSubsetPool checks the limit study's fixed-combination policy: it
// admits exactly its candidates, matched by start and length in any pool
// that holds them, and its name spells the combination out.
func TestSubsetPool(t *testing.T) {
	p := fig5Program(t)
	cands := minigraph.Enumerate(p, minigraph.DefaultLimits())
	if len(cands) < 3 {
		t.Fatalf("fig5 program has %d candidates, want at least 3", len(cands))
	}
	first, last := cands[0], cands[len(cands)-1]
	s := Subset([]*minigraph.Candidate{last, first})
	if want := fmt.Sprintf("Subset{%d+%d,%d+%d}", last.Start, last.N, first.Start, first.N); s.Name() != want {
		t.Errorf("name = %q, want %q", s.Name(), want)
	}
	if s.NeedsProfile() || s.Dyn != (DynOptions{}) {
		t.Errorf("Subset needs a profile (%v) or a monitor (%+v)", s.NeedsProfile(), s.Dyn)
	}
	// A second enumeration holds equal candidates at other addresses.
	pool := s.Pool(p, minigraph.Enumerate(p, minigraph.DefaultLimits()), nil)
	if len(pool) != 2 || pool[0].Start != first.Start || pool[0].N != first.N ||
		pool[1].Start != last.Start || pool[1].N != last.N {
		t.Errorf("pool = %v, want [%v %v]", pool, first, last)
	}
	if empty := Subset(nil); empty.Name() != "Subset{}" || len(empty.Pool(p, cands, nil)) != 0 {
		t.Errorf("empty subset %q admits %d candidates", empty.Name(), len(empty.Pool(p, cands, nil)))
	}
}
