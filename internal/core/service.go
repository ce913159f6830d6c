package core

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/simcache"
	"repro/internal/slack"
	"repro/internal/workload"
)

// This file is the memoizing simulation service layer. Experiment figures
// overlap heavily: the same workload preparation, fully-provisioned
// baseline simulation, slack profile, and even whole series (e.g.
// Struct-All on the reduced machine) appear in several sweeps. The
// process-wide caches below make every distinct piece of work happen
// exactly once per process, concurrency-safe and singleflight-deduplicated,
// while keeping results bit-identical to uncached execution (all simulation
// paths are deterministic).

type benchKey struct {
	Workload string
	Input    string
}

var (
	// benchCache memoizes workload preparation (build, functional
	// emulation, candidate enumeration) per (workload, input).
	benchCache = simcache.Named[benchKey, *Bench]("benches")

	// selectCache memoizes the selection stage of a series point: profile,
	// candidate pool, policy filter and budgeted selection. The machine the
	// selection then runs on is not part of its key; selection never reads
	// it.
	selectCache = simcache.Named[simcache.Key, *minigraph.Selection]("selections")

	// resultCache memoizes timing simulations by runKey, one entry per
	// distinct run: series points whose runs are equal share one.
	resultCache = simcache.Named[simcache.Key, runResult]("results")

	// candsCache memoizes non-default candidate enumerations (ablations).
	candsCache = simcache.Named[simcache.Key, []*minigraph.Candidate]("cands")
)

func init() {
	recSize := int64(reflect.TypeOf(emu.Rec{}).Size())
	benchCache.SizeFunc = func(b *Bench) int64 {
		return int64(len(b.Trace))*recSize + int64(len(b.Freq))*8
	}
	runSize := int64(reflect.TypeOf(pipeline.Stats{}).Size() + reflect.TypeOf(pipeline.SampleReport{}).Size())
	resultCache.SizeFunc = func(runResult) int64 { return runSize }
}

// runResult is one timing run: its statistics and, for a sampled run, the
// report drivers print as a fidelity banner.
type runResult struct {
	stats  *pipeline.Stats
	report pipeline.SampleReport
}

// CacheCounters reports the activity of the simulation caches.
type CacheCounters struct {
	Benches simcache.Counters
	Results simcache.Counters
}

// Caches returns a snapshot of the process-wide cache counters.
func Caches() CacheCounters {
	return CacheCounters{Benches: benchCache.Stats(), Results: resultCache.Stats()}
}

// ResetCaches drops all cached benches and results (tests, memory
// pressure).
func ResetCaches() {
	benchCache.Reset()
	selectCache.Reset()
	resultCache.Reset()
	candsCache.Reset()
}

// SetCachingDisabled bypasses all process-wide caches (the -nocache escape
// hatch for timing-accuracy debugging): sweeps run the same loop, but every
// lookup computes fresh, retains nothing and reports a miss.
func SetCachingDisabled(d bool) {
	benchCache.SetDisabled(d)
	selectCache.SetDisabled(d)
	resultCache.SetDisabled(d)
	candsCache.SetDisabled(d)
}

// PrepareShared is Prepare through the process-wide bench cache: each
// (workload, input) pair is built and functionally emulated exactly once
// per process, no matter how many sweeps request it.
func PrepareShared(w *workload.Workload, input string) (*Bench, error) {
	return PrepareSharedCtx(context.Background(), w, input)
}

// PrepareSharedCtx is PrepareShared with the caller's context threaded
// through: the bench-cache lookup and, on a miss, the preparation itself
// appear as spans in exported traces.
func PrepareSharedCtx(ctx context.Context, w *workload.Workload, input string) (*Bench, error) {
	b, _, err := benchCache.DoCtx(ctx, benchKey{w.Name, input}, func(ctx context.Context) (*Bench, error) {
		_, sp := metrics.StartSpan(ctx, "prepare",
			metrics.L("workload", w.Name), metrics.L("input", input))
		defer sp.End()
		return Prepare(w, input)
	})
	return b, err
}

// PrepareSharedByName is PrepareShared by workload name.
func PrepareSharedByName(name, input string) (*Bench, error) {
	w := workload.Find(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return PrepareShared(w, input)
}

// selIdentity is the fingerprintable identity of a selection policy: the
// policy name plus its hardware-monitor options (two policies never share
// a name, but hashing Dyn too costs nothing and guards refactors).
type selIdentity struct {
	Name string
	Dyn  selector.DynOptions
}

func identityOf(sel *selector.Selector) selIdentity {
	return selIdentity{Name: sel.Name(), Dyn: sel.Dyn}
}

// sampleIdentity normalizes a sampling spec to the fields that determine
// the estimate: the worker count only changes who simulates a window, never
// the result (see TestRepresentativeWorkersDeterministic), so it must not
// fragment the result cache.
func sampleIdentity(s pipeline.SampleSpec) pipeline.SampleSpec {
	s.Workers = 0
	return s
}

// runIdentity is the content of the pipeline.MGConfig a run receives, in a
// form Fingerprint accepts. The selection enters as Start, N and Template
// of each instance, in order (the order lays out the outlined code), and
// its template count; a Candidate's fields follow from (program, Start, N).
type runIdentity struct {
	MG           pipeline.MGConfig // Selection cleared
	Instances    []int
	NumTemplates int
}

// runKey fingerprints one timing simulation by what the pipeline receives:
// the trace (workload, input), the machine, the mini-graph configuration
// and the sampling spec (nil = full detail). Series points whose selections
// are equal share a key, and an empty selection shares the singleton's.
func runKey(b *Bench, cfg pipeline.Config, mg pipeline.MGConfig, sample *pipeline.SampleSpec) simcache.Key {
	id := runIdentity{MG: mg}
	id.MG.Selection = nil
	if sel := mg.Selection; sel != nil {
		id.Instances = make([]int, 0, 3*len(sel.Instances))
		for _, in := range sel.Instances {
			id.Instances = append(id.Instances, in.Start, in.N, in.Template)
		}
		id.NumTemplates = sel.NumTemplates
	}
	if sample != nil {
		s := sampleIdentity(*sample)
		sample = &s
	}
	return simcache.Fingerprint("run", b.Workload.Name, b.Input, cfg, id, sample)
}

// timingRun returns the timing of b on cfg under mg, at sampled fidelity
// when sample is non-nil, and how it was answered: "miss" only when this
// call simulated. An exact run without mini-graphs is the run a slack
// profile makes on cfg. If the sweep profiles cfg anyway (profiled, see
// ownProfiles), it takes that profile's run, starting it here if its job
// has not started yet, so the runs a sweep makes do not depend on worker
// timing. Otherwise a profile completed earlier may answer it. Without
// caching every run is simulated. Any other run goes through the result
// cache.
func timingRun(ctx context.Context, b *Bench, cfg pipeline.Config, mg pipeline.MGConfig, sample *pipeline.SampleSpec, profiled map[pipeline.Config]bool) (runResult, string, error) {
	if sample == nil && !mg.Enabled() && !resultCache.Disabled() {
		if profiled[cfg] {
			pr, outcome, err := b.profileRunCtx(ctx, cfg)
			if err != nil {
				return runResult{}, "", err
			}
			return runResult{stats: pr.stats}, outcome, nil
		}
		if pr, ok := b.profiles.Get(simcache.Fingerprint(cfg)); ok {
			return runResult{stats: pr.stats}, simcache.Hit, nil
		}
	}
	return resultCache.DoCtx(ctx, runKey(b, cfg, mg, sample), func(ctx context.Context) (runResult, error) {
		return simulate(ctx, b, cfg, mg, sample, nil)
	})
}

// simulate makes one timing run of b on cfg under mg under a simulate
// span: observed by watch when it is non-nil, at sampled fidelity when
// sample is non-nil, else in full detail.
func simulate(ctx context.Context, b *Bench, cfg pipeline.Config, mg pipeline.MGConfig, sample *pipeline.SampleSpec, watch *obs.Observer) (runResult, error) {
	ctx, sp := metrics.StartSpan(ctx, "simulate",
		metrics.L("workload", b.Workload.Name), metrics.L("config", cfg.Name))
	defer sp.End()
	var r runResult
	var err error
	switch {
	case watch != nil:
		r.stats, err = pipeline.RunObserved(b.Prog, b.Trace, cfg, mg, nil, watch)
	case sample != nil:
		r.stats, r.report, err = b.runSampled(ctx, cfg, mg, *sample)
	default:
		r.stats, err = pipeline.Run(b.Prog, b.Trace, cfg, mg, nil)
	}
	return r, err
}

// SelectionFor returns the memoized selection of series point sp on b,
// EvalPoint's select step, and how the selection cache answered. The
// selection is sp's policy, profiling on the spec's profiling machine and
// input where it needs a profile, under the spec's candidate-enumeration
// limits and MGT budget. A policy that needs no profile ignores the
// profiling machine and input, so they do not split its entry.
func SelectionFor(ctx context.Context, b *Bench, sp SeriesSpec) (*minigraph.Selection, string, error) {
	profCfg, profInput := profCfgOf(sp), sp.ProfInput
	if profInput == "" {
		profInput = b.Input
	}
	if !sp.Sel.NeedsProfile() {
		profCfg, profInput = pipeline.Config{}, ""
	}
	limits, selCfg := sp.limits(), sp.selectCfg()
	key := simcache.Fingerprint("select", b.Workload.Name, b.Input,
		identityOf(sp.Sel), profCfg, profInput, limits, selCfg)
	return selectCache.DoCtx(ctx, key, func(ctx context.Context) (*minigraph.Selection, error) {
		return deriveSelection(ctx, b, sp.Sel, profCfg, profInput, limits, selCfg)
	})
}

// deriveSelection performs the selection stage of one series point through
// the shared caches: the slack profile (possibly on a cross-input bench),
// the candidate pool under limits, the policy filter, and the final
// budgeted selection. profInput == "" means self-trained (b's own input).
func deriveSelection(ctx context.Context, b *Bench, sel *selector.Selector, profCfg pipeline.Config, profInput string, limits minigraph.Limits, selCfg minigraph.SelectConfig) (*minigraph.Selection, error) {
	var prof *slack.Profile
	if sel.NeedsProfile() {
		pctx, psp := metrics.StartSpan(ctx, "profile",
			metrics.L("workload", b.Workload.Name), metrics.L("config", profCfg.Name))
		p, err := collectProfile(pctx, b, profCfg, profInput)
		psp.End()
		if err != nil {
			return nil, err
		}
		prof = p
	}
	cands := b.Cands
	if limits != minigraph.DefaultLimits() {
		c, err := enumerateShared(ctx, b, limits)
		if err != nil {
			return nil, err
		}
		cands = c
	}
	_, ssp := metrics.StartSpan(ctx, "select",
		metrics.L("workload", b.Workload.Name), metrics.L("policy", sel.Name()))
	defer ssp.End()
	pool := sel.Pool(b.Prog, cands, prof)
	return minigraph.Select(b.Prog, pool, b.Freq, selCfg), nil
}

// collectProfile resolves the profiling bench (possibly cross-input) and
// returns its slack profile on profCfg.
func collectProfile(ctx context.Context, b *Bench, profCfg pipeline.Config, profInput string) (*slack.Profile, error) {
	profBench := b
	if profInput != "" && profInput != b.Input {
		// Cross-input robustness: collect the profile on the other
		// input's bench (static indices align — the code is
		// identical, only the data differs).
		pb, err := PrepareSharedCtx(ctx, b.Workload, profInput)
		if err != nil {
			return nil, err
		}
		profBench = pb
	}
	pr, _, err := profBench.profileRunCtx(ctx, profCfg)
	if err != nil {
		return nil, err
	}
	return pr.prof, nil
}

// TaskKey returns the content-addressed fingerprint of series point sp
// on b: the identity run-ledger records carry. It names the point, not its
// run: the result cache files runs under runKey, which equal selections of
// different points share. sample == nil means full detail (sampled
// estimates get distinct keys). Zero Limits and Budget key as the defaults
// they stand for.
func TaskKey(b *Bench, sp SeriesSpec, sample *pipeline.SampleSpec) simcache.Key {
	if sp.Sel == nil {
		if sample != nil {
			return simcache.Fingerprint("singleton-sampled", b.Workload.Name, b.Input, sp.Cfg, sampleIdentity(*sample))
		}
		return simcache.Fingerprint("singleton", b.Workload.Name, b.Input, sp.Cfg)
	}
	profInput := sp.ProfInput
	if profInput == "" {
		profInput = b.Input
	}
	if sample != nil {
		return simcache.Fingerprint("eval-sampled", b.Workload.Name, b.Input,
			identityOf(sp.Sel), profCfgOf(sp), profInput, sp.Cfg,
			sp.limits(), sp.selectCfg(), sampleIdentity(*sample))
	}
	return simcache.Fingerprint("eval", b.Workload.Name, b.Input,
		identityOf(sp.Sel), profCfgOf(sp), profInput, sp.Cfg,
		sp.limits(), sp.selectCfg())
}

// enumerateShared returns the cached candidate pool of b under non-default
// enumeration limits.
func enumerateShared(ctx context.Context, b *Bench, limits minigraph.Limits) ([]*minigraph.Candidate, error) {
	key := simcache.Fingerprint("cands", b.Workload.Name, b.Input, limits)
	c, _, err := candsCache.DoCtx(ctx, key, func(context.Context) ([]*minigraph.Candidate, error) {
		return minigraph.Enumerate(b.Prog, limits), nil
	})
	return c, err
}
