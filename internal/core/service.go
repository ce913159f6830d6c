package core

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/minigraph"
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

	// resultCache memoizes timing-simulation outcomes per fingerprint of
	// everything that determines them (workload, input, machine config,
	// selector identity, profile provenance, enumeration limits, MGT
	// budget).
	resultCache = simcache.Named[simcache.Key, *pipeline.Stats]("results")

	// candsCache memoizes non-default candidate enumerations (ablations).
	candsCache = simcache.Named[simcache.Key, []*minigraph.Candidate]("cands")
)

func init() {
	recSize := int64(reflect.TypeOf(emu.Rec{}).Size())
	benchCache.SizeFunc = func(b *Bench) int64 {
		return int64(len(b.Trace))*recSize + int64(len(b.Freq))*8
	}
	statsSize := int64(reflect.TypeOf(pipeline.Stats{}).Size())
	resultCache.SizeFunc = func(*pipeline.Stats) int64 { return statsSize }
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
	resultCache.Reset()
	candsCache.Reset()
}

// SetCachingDisabled bypasses all process-wide caches (the -nocache escape
// hatch for timing-accuracy debugging): sweeps run the same loop, but every
// lookup computes fresh, retains nothing and reports a miss.
func SetCachingDisabled(d bool) {
	benchCache.SetDisabled(d)
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

// singletonStats returns the cached singleton (no mini-graphs) timing of
// bench b on cfg. sample selects low-fidelity estimation (nil = full
// detail); sampled results are cached under distinct keys so an estimate
// can never answer for an exact run.
func singletonStats(ctx context.Context, b *Bench, cfg pipeline.Config, sample *pipeline.SampleSpec) (*pipeline.Stats, error) {
	st, _, err := singletonStatsNoted(ctx, b, cfg, sample)
	return st, err
}

// singletonStatsNoted is singletonStats plus the cache outcome for
// telemetry.
func singletonStatsNoted(ctx context.Context, b *Bench, cfg pipeline.Config, sample *pipeline.SampleSpec) (*pipeline.Stats, string, error) {
	key := simcache.Fingerprint("singleton", b.Workload.Name, b.Input, cfg)
	if sample != nil {
		key = simcache.Fingerprint("singleton-sampled", b.Workload.Name, b.Input, cfg, sampleIdentity(*sample))
	}
	return resultCache.DoCtx(ctx, key, func(ctx context.Context) (*pipeline.Stats, error) {
		ctx, sp := metrics.StartSpan(ctx, "simulate",
			metrics.L("workload", b.Workload.Name), metrics.L("config", cfg.Name))
		defer sp.End()
		if sample != nil {
			st, _, err := b.RunSampledReportCtx(ctx, cfg, nil, nil, *sample)
			return st, err
		}
		return b.RunSingleton(cfg)
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
	return profBench.ProfileCtx(ctx, profCfg)
}

// evalStats returns the cached outcome of one experiment series point:
// select with sel (profiling on profCfg over profInput where needed) and
// run on runCfg. limits and selCfg are the candidate-enumeration and MGT
// budget knobs (pass the defaults for non-ablation series, so equal work
// dedupes across figure and ablation drivers).
func evalStats(ctx context.Context, b *Bench, sel *selector.Selector, profCfg pipeline.Config, profInput string, runCfg pipeline.Config, limits minigraph.Limits, selCfg minigraph.SelectConfig) (*pipeline.Stats, error) {
	st, _, err := evalStatsNoted(ctx, b, sel, profCfg, profInput, runCfg, limits, selCfg, nil)
	return st, err
}

// evalStatsNoted is evalStats plus the cache outcome for telemetry and a
// sampling spec (nil = full detail). Sampling applies only to the final
// timing run — profiling and selection always run exactly, so a sampled
// series evaluates the same mini-graph set as a detailed one.
func evalStatsNoted(ctx context.Context, b *Bench, sel *selector.Selector, profCfg pipeline.Config, profInput string, runCfg pipeline.Config, limits minigraph.Limits, selCfg minigraph.SelectConfig, sample *pipeline.SampleSpec) (*pipeline.Stats, string, error) {
	if profInput == "" {
		profInput = b.Input
	}
	key := simcache.Fingerprint("eval", b.Workload.Name, b.Input,
		identityOf(sel), profCfg, profInput, runCfg, limits, selCfg)
	if sample != nil {
		key = simcache.Fingerprint("eval-sampled", b.Workload.Name, b.Input,
			identityOf(sel), profCfg, profInput, runCfg, limits, selCfg, sampleIdentity(*sample))
	}
	return resultCache.DoCtx(ctx, key, func(ctx context.Context) (*pipeline.Stats, error) {
		chosen, err := deriveSelection(ctx, b, sel, profCfg, profInput, limits, selCfg)
		if err != nil {
			return nil, err
		}
		ctx, sp := metrics.StartSpan(ctx, "simulate",
			metrics.L("workload", b.Workload.Name), metrics.L("config", runCfg.Name),
			metrics.L("policy", sel.Name()))
		defer sp.End()
		if sample != nil {
			st, _, err := b.RunSampledReportCtx(ctx, runCfg, sel, chosen, *sample)
			return st, err
		}
		return b.Run(runCfg, sel, chosen)
	})
}

// TaskKey returns the content-addressed fingerprint of one series point —
// the same key singletonStatsNoted/evalStatsNoted file the result under
// (with default enumeration limits and MGT budget), exported so run-ledger
// records carry the identity the cache uses. sel == nil means singleton
// execution; profInput == "" means self-trained; sample == nil means full
// detail (sampled estimates live under distinct keys).
func TaskKey(b *Bench, sel *selector.Selector, profCfg pipeline.Config, profInput string, runCfg pipeline.Config, sample *pipeline.SampleSpec) simcache.Key {
	if sel == nil {
		if sample != nil {
			return simcache.Fingerprint("singleton-sampled", b.Workload.Name, b.Input, runCfg, sampleIdentity(*sample))
		}
		return simcache.Fingerprint("singleton", b.Workload.Name, b.Input, runCfg)
	}
	if profInput == "" {
		profInput = b.Input
	}
	if sample != nil {
		return simcache.Fingerprint("eval-sampled", b.Workload.Name, b.Input,
			identityOf(sel), profCfg, profInput, runCfg,
			minigraph.DefaultLimits(), minigraph.DefaultSelectConfig(), sampleIdentity(*sample))
	}
	return simcache.Fingerprint("eval", b.Workload.Name, b.Input,
		identityOf(sel), profCfg, profInput, runCfg,
		minigraph.DefaultLimits(), minigraph.DefaultSelectConfig())
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
