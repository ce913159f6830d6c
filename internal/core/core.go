// Package core orchestrates the full mini-graph toolchain: it prepares
// workloads (functional run, candidate enumeration), collects slack
// profiles, applies selection policies, runs the timing pipeline, and
// drives the paper's experiments.
package core

import (
	"context"
	"fmt"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/selector"
	"repro/internal/simcache"
	"repro/internal/slack"
	"repro/internal/workload"
)

// Bench is a prepared workload: program, committed trace, per-static
// frequencies and the mini-graph candidate pool. Profiles are cached per
// machine configuration, representative-sampling plans per plan key.
type Bench struct {
	Workload *workload.Workload
	Input    string
	Prog     *prog.Program
	Trace    []emu.Rec
	Freq     []int64
	Cands    []*minigraph.Candidate

	// profiles memoizes profiling runs per machine-configuration
	// fingerprint, deduplicating concurrent computations.
	profiles *simcache.Cache[simcache.Key, *profileRun]
	// plans memoizes representative-sampling plans per pipeline.RepPlanKey:
	// every sampled run of this trace whose machine shares a memory system
	// and predictor with an earlier one reuses its plan. The cache lives and
	// dies with the Bench, so a plan never outlives the trace it indexes.
	plans *simcache.Cache[pipeline.RepPlanKey, *pipeline.RepPlan]
}

// Prepare builds and functionally executes a workload, enumerates
// mini-graph candidates, and verifies the checksum when a reference exists.
func Prepare(w *workload.Workload, input string) (*Bench, error) {
	p, want, verified, err := w.Build(input)
	if err != nil {
		return nil, err
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		return nil, fmt.Errorf("prepare %s/%s: %w", w.Name, input, err)
	}
	if verified && res.Checksum() != want {
		return nil, fmt.Errorf("prepare %s/%s: checksum %#x, want %#x", w.Name, input, res.Checksum(), want)
	}
	freq := make([]int64, p.NumInstrs())
	for _, r := range res.Trace {
		freq[r.Index]++
	}
	return &Bench{
		Workload: w,
		Input:    input,
		Prog:     p,
		Trace:    res.Trace,
		Freq:     freq,
		Cands:    minigraph.Enumerate(p, minigraph.DefaultLimits()),
		profiles: simcache.Named[simcache.Key, *profileRun]("profiles"),
		plans:    simcache.Named[pipeline.RepPlanKey, *pipeline.RepPlan]("plans"),
	}, nil
}

// PrepareByName is Prepare by workload name.
func PrepareByName(name, input string) (*Bench, error) {
	w := workload.Find(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return Prepare(w, input)
}

// profileRun is one slack-profiling run: the profile and the run's timing.
// The profiler only observes, so the timing equals a plain singleton run's
// on the same machine (TestProfileGolden checks it for every program).
type profileRun struct {
	prof  *slack.Profile
	stats *pipeline.Stats
}

// Profile returns the slack profile of a singleton run on cfg, caching by
// a fingerprint of the whole configuration (so variants sharing a name
// cannot collide). This matches the paper: profiles are collected from
// non-mini-graph executions. Concurrent callers share one computation.
func (b *Bench) Profile(cfg pipeline.Config) (*slack.Profile, error) {
	return collectProfile(context.Background(), b, cfg, "")
}

// profileRunCtx is Profile returning the whole profiling run and the cache
// outcome ("miss" when this call ran it), with the caller's context
// threaded through, so the per-bench profile-cache lookup (and, on a miss,
// the profiling run) appears as a nested span in exported traces.
func (b *Bench) profileRunCtx(ctx context.Context, cfg pipeline.Config) (*profileRun, string, error) {
	return b.profiles.DoCtx(ctx, simcache.Fingerprint(cfg), func(context.Context) (*profileRun, error) {
		acc := slack.NewAccumulator(b.Prog.Name, b.Prog.NumInstrs())
		st, err := pipeline.Run(b.Prog, b.Trace, cfg, pipeline.MGConfig{}, acc)
		if err != nil {
			return nil, fmt.Errorf("profiling %s on %s: %w", b.Prog.Name, cfg.Name, err)
		}
		return &profileRun{prof: acc.Profile(), stats: st}, nil
	})
}

// Select applies a selection policy, producing the mini-graph set. prof may
// be nil for policies that don't need one.
func (b *Bench) Select(sel *selector.Selector, prof *slack.Profile) *minigraph.Selection {
	pool := sel.Pool(b.Prog, b.Cands, prof)
	return minigraph.Select(b.Prog, pool, b.Freq, minigraph.DefaultSelectConfig())
}

// mgConfigFor assembles the pipeline mini-graph configuration for a
// selection (nil for singleton execution) under the policy's
// dynamic-monitor options.
func mgConfigFor(sel *selector.Selector, chosen *minigraph.Selection) pipeline.MGConfig {
	mg := pipeline.MGConfig{}
	if chosen != nil && len(chosen.Instances) > 0 {
		mg.Selection = chosen
		if sel != nil {
			mg.Dynamic = sel.Dyn.Dynamic
			mg.DynamicDelayOnly = sel.Dyn.DelayOnly
			mg.DynamicSIAL = sel.Dyn.SIAL
			mg.IdealOutlining = sel.Dyn.IdealOutlining
		}
	}
	return mg
}

// Run executes the timing pipeline on cfg with the given selection (nil for
// singleton execution) under the policy's dynamic-monitor options.
func (b *Bench) Run(cfg pipeline.Config, sel *selector.Selector, chosen *minigraph.Selection) (*pipeline.Stats, error) {
	return pipeline.Run(b.Prog, b.Trace, cfg, mgConfigFor(sel, chosen), nil)
}

// RunSampledReport executes the timing pipeline at sampled fidelity: the
// full trace is sliced per spec and only the selected windows run in
// detail, so the returned stats are estimates. The pipeline.SampleReport
// (window count, detailed-instruction share, error bound) lets callers
// print a fidelity banner next to the estimate. A representative run takes
// its plan from the bench's plan cache, so the plan is built once per key
// however many machines and policies sample this trace; the estimate is
// bit-identical to pipeline.RunSampledReport's.
func (b *Bench) RunSampledReport(cfg pipeline.Config, sel *selector.Selector, chosen *minigraph.Selection, spec pipeline.SampleSpec) (*pipeline.Stats, pipeline.SampleReport, error) {
	return b.runSampled(context.Background(), cfg, mgConfigFor(sel, chosen), spec)
}

// runSampled is RunSampledReport on an assembled mini-graph configuration,
// with the caller's context threaded through: the plan-cache lookup (and,
// on a miss, the planning) and the sampled run's spans nest under the
// caller's in exported traces.
func (b *Bench) runSampled(ctx context.Context, cfg pipeline.Config, mg pipeline.MGConfig, spec pipeline.SampleSpec) (*pipeline.Stats, pipeline.SampleReport, error) {
	if !spec.NeedsPlan(len(b.Trace)) {
		return pipeline.RunSampledReport(ctx, b.Prog, b.Trace, cfg, mg, spec)
	}
	plan, _, err := b.plans.DoCtx(ctx, pipeline.RepPlanKeyOf(cfg, spec), func(context.Context) (*pipeline.RepPlan, error) {
		return pipeline.NewRepPlan(b.Prog, b.Trace, cfg, spec)
	})
	if err != nil {
		return nil, pipeline.SampleReport{}, err
	}
	return pipeline.RunRepPlan(ctx, plan, b.Prog, b.Trace, cfg, mg, spec)
}

// RunSingleton executes the timing pipeline without mini-graphs.
func (b *Bench) RunSingleton(cfg pipeline.Config) (*pipeline.Stats, error) {
	return pipeline.Run(b.Prog, b.Trace, cfg, pipeline.MGConfig{}, nil)
}
