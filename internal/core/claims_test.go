package core

import (
	"testing"
)

// TestPaperClaims asserts the paper's qualitative results — the shape
// claims listed in DESIGN.md — over the full 78-program population, on the
// small and on the large inputs. This is the repository's primary
// end-to-end regression: if a change to the simulator, the selectors, or
// the workloads breaks one of the reproduced phenomena, this test
// localizes which claim died.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full-population sweep")
	}
	for _, input := range []string{"small", "large"} {
		t.Run(input, func(t *testing.T) {
			skipLargeUnderRace(t, input)
			paperClaims(t, Options{Input: input})
		})
	}
}

// skipLargeUnderRace skips a claims leg on the large inputs in -race
// builds. The claims check what the simulator computes, not concurrency,
// and the plain go test run checks them; under the race detector the two
// large legs cost about three minutes of the race target's timeout.
func skipLargeUnderRace(t *testing.T, input string) {
	if raceEnabled && input == "large" {
		t.Skip("large inputs run outside -race builds")
	}
}

func paperClaims(t *testing.T, opts Options) {
	top, err := Fig6Top(opts)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := Fig6Middle(opts)
	if err != nil {
		t.Fatal(err)
	}

	perf := func(r *SweepResult, label string) float64 { return r.Perf.Get(label).Mean() }
	cov := func(r *SweepResult, label string) float64 { return r.Coverage.Get(label).Mean() }

	// C1: the reduced machine without mini-graphs loses performance.
	if v := perf(top, "no mini-graphs"); v >= 0.98 {
		t.Errorf("C1: reduced/no-MG mean = %.3f, want a visible slowdown", v)
	}

	// C2: Struct-All's coverage is well above Struct-None's (paper: ~2x).
	ca, cn := cov(top, "Struct-All"), cov(top, "Struct-None")
	if ca < cn*1.2 {
		t.Errorf("C2: coverage Struct-All %.3f vs Struct-None %.3f, want >= 1.2x", ca, cn)
	}

	// C3: Slack-Profile's coverage sits strictly between the extremes.
	if cp := cov(top, "Slack-Profile"); !(cn < cp && cp < ca) {
		t.Errorf("C3: Slack-Profile coverage %.3f not between %.3f and %.3f", cp, cn, ca)
	}

	// C4: Slack-Profile is the best selector on both machines.
	for _, r := range []*SweepResult{top, mid} {
		sp := perf(r, "Slack-Profile")
		for _, other := range []string{"Struct-All", "Struct-None", "Struct-Bounded", "Slack-Dynamic"} {
			if sp <= perf(r, other) {
				t.Errorf("C4: Slack-Profile (%.3f) not above %s (%.3f) [%s]",
					sp, other, perf(r, other), r.Perf.Title)
			}
		}
	}

	// C5: Struct-All produces a pathological tail (programs below the
	// no-mini-graph machine) and Struct-None essentially never does.
	nomg := top.Perf.Get("no mini-graphs")
	sa := top.Perf.Get("Struct-All")
	sn := top.Perf.Get("Struct-None")
	saBelow, snBelow := 0, 0
	for prog, base := range nomg.Values {
		if sa.Values[prog] < base*0.995 {
			saBelow++
		}
		if sn.Values[prog] < base*0.98 {
			snBelow++
		}
	}
	if saBelow < 5 {
		t.Errorf("C5: Struct-All below no-MG on only %d programs, want a visible tail", saBelow)
	}
	if snBelow > 3 {
		t.Errorf("C5: Struct-None below no-MG on %d programs, want ~none", snBelow)
	}

	// C6: the Struct-All / Struct-None S-curves cross — each wins a
	// substantial share of programs on the reduced machine.
	saWins := 0
	for prog := range sa.Values {
		if sa.Values[prog] > sn.Values[prog] {
			saWins++
		}
	}
	if saWins < 15 || saWins > 63 {
		t.Errorf("C6: Struct-All wins %d/78; want a genuine crossing", saWins)
	}

	// C7: Slack-Profile lets the reduced machine beat the fully-provisioned
	// baseline on average (the paper's headline).
	if sp := perf(top, "Slack-Profile"); sp < 1.0 {
		t.Errorf("C7: Slack-Profile on reduced = %.3f, want >= 1.0", sp)
	}

	// C8: explicit delay accounting beats the SIAL arrival-order heuristic.
	f7, err := Fig7Top(opts)
	if err != nil {
		t.Fatal(err)
	}
	sp, sial := perf(f7, "Slack-Profile"), perf(f7, "Slack-Profile-SIAL")
	if sp < sial+0.03 {
		t.Errorf("C8: Slack-Profile %.3f vs SIAL %.3f, want a clear gap", sp, sial)
	}

	// C9: removing the outlining penalty improves Slack-Dynamic, and the
	// penalty-free model beats Struct-All.
	f7b, err := Fig7Bottom(opts)
	if err != nil {
		t.Fatal(err)
	}
	sd, isd := perf(f7b, "Slack-Dynamic"), perf(f7b, "Ideal-Slack-Dynamic")
	if isd < sd {
		t.Errorf("C9: Ideal-Slack-Dynamic %.3f below Slack-Dynamic %.3f", isd, sd)
	}
	if isd <= perf(f7b, "Struct-All") {
		t.Errorf("C9: Ideal-Slack-Dynamic %.3f not above Struct-All %.3f",
			isd, perf(f7b, "Struct-All"))
	}
}

// TestAblationClaims asserts the design-choice sweeps behave sensibly, on
// the small and on the large inputs: size and input limits trade coverage
// monotonically, and the MGT budget saturates.
func TestAblationClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full-population sweep")
	}
	for _, input := range []string{"small", "large"} {
		t.Run(input, func(t *testing.T) {
			skipLargeUnderRace(t, input)
			ablationClaims(t, Options{Input: input, Suites: []string{"media", "embed"}})
		})
	}
}

func ablationClaims(t *testing.T, opts Options) {
	ml, err := AblationMaxLen(opts)
	if err != nil {
		t.Fatal(err)
	}
	c2 := ml.Coverage.Get("maxlen=2").Mean()
	c3 := ml.Coverage.Get("maxlen=3").Mean()
	c4 := ml.Coverage.Get("maxlen=4").Mean()
	if !(c2 < c3 && c3 < c4) {
		t.Errorf("coverage not monotone in MaxLen: %.3f %.3f %.3f", c2, c3, c4)
	}

	in, err := AblationMaxInputs(opts)
	if err != nil {
		t.Fatal(err)
	}
	if in.Coverage.Get("3 inputs (this paper)").Mean() <= in.Coverage.Get("2 inputs (MICRO-04)").Mean() {
		t.Error("the third register input should increase coverage (Section 2's design change)")
	}

	// Section 4.3, "think globally, act locally": local slack must be the
	// better rule-#4 budget, because global slack is relative to a critical
	// path that shifts as mini-graphs are introduced.
	sc, err := AblationSlackScope(opts)
	if err != nil {
		t.Fatal(err)
	}
	local := sc.Perf.Get("local slack (paper)").Mean()
	global := sc.Perf.Get("global slack").Mean()
	if local <= global {
		t.Errorf("local slack (%.3f) should beat global slack (%.3f)", local, global)
	}

	bg, err := AblationBudget(opts)
	if err != nil {
		t.Fatal(err)
	}
	if bg.Coverage.Get("budget=4").Mean() >= bg.Coverage.Get("budget=512").Mean() {
		t.Error("a 4-template budget should constrain coverage")
	}
	// 64 vs 512: saturated for kernel-scale programs.
	d := bg.Perf.Get("budget=512").Mean() - bg.Perf.Get("budget=64").Mean()
	if d > 0.02 || d < -0.02 {
		t.Errorf("budget 64 -> 512 should be saturated, got %.3f delta", d)
	}
}
