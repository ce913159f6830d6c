package pipeline

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// Representative-interval sampling (the SimPoint/NPS idea): slice the trace
// into fixed-size intervals, describe each by a basic-block execution vector
// plus its branch/memory mix, cluster the vectors with deterministic k-means,
// and simulate one window per cluster in detail — its head functionally
// warmed — estimating whole-run stats as the cluster-weighted combination.
// Uniform periodic sampling (sampling.go) stays available as the
// differential oracle, selected by SampleSpec.Mode.

// SampleMode selects the windowing strategy of RunSampledReport.
type SampleMode uint8

const (
	// SampleUniform measures periodic windows and extrapolates — the
	// original methodology and the differential oracle. The zero value, so
	// existing SampleSpec literals keep their behavior.
	SampleUniform SampleMode = iota
	// SampleRepresentative clusters interval feature vectors and measures
	// one representative window per cluster.
	SampleRepresentative
)

func (m SampleMode) String() string {
	switch m {
	case SampleUniform:
		return "uniform"
	case SampleRepresentative:
		return "rep"
	}
	return fmt.Sprintf("SampleMode(%d)", uint8(m))
}

// ParseSampleMode parses the CLI spelling of a sampling mode.
func ParseSampleMode(s string) (SampleMode, error) {
	switch s {
	case "", "uniform":
		return SampleUniform, nil
	case "rep", "representative":
		return SampleRepresentative, nil
	}
	return 0, fmt.Errorf("pipeline: unknown sample mode %q (want uniform or rep)", s)
}

// DefaultSampleClusters floors the auto-scaled window budget used when
// SampleSpec.Clusters is 0 (see planRepWindows).
const DefaultSampleClusters = 8

// repMaxClusters caps the k-means phase count. More phases fragment the
// feature space faster than they explain CPI; past eight the extra windows
// are better spent averaging within phases than splitting them.
const repMaxClusters = 8

// SampleReport describes what a sampled run actually simulated, so callers
// can report fidelity alongside the estimate.
type SampleReport struct {
	Mode      SampleMode
	Full      bool // short trace: the whole program ran in detail
	Intervals int  // feature intervals sliced (representative mode)
	Windows   int  // detailed windows simulated
	// DetailInstrs counts instructions simulated in the detailed model
	// (including uniform mode's warm-up re-simulation). WarmInstrs sums,
	// over the representative windows, the functionally warmed prefix each
	// window stands on. The windows share one warm pass over the trace, so
	// the replay work done is at most the trace length, not WarmInstrs.
	DetailInstrs  int64
	WarmInstrs    int64
	SimulatedFrac float64 // DetailInstrs / trace length
	// ErrBound is a heuristic relative error bound on the cycle estimate:
	// the weighted intra-cluster feature dispersion (how imperfectly the
	// representatives stand for their clusters) scaled by the observed
	// cross-cluster CPI spread (how much being wrong could cost). It is a
	// guide, not a guarantee — the CI accuracy gate measures the real error.
	ErrBound float64
}

// --- interval features ---

// bbvBuckets is the hashed basic-block-vector width. Block IDs hash into
// this many buckets (Knuth multiplicative hashing, deterministic), keeping
// feature vectors small regardless of program size.
const bbvBuckets = 64

// featDims: hashed BBV, branch/taken/load/store mix fractions, two warmth
// dimensions — the fraction of data accesses touching a cache line never
// seen earlier in the trace, and the fraction of records entering a basic
// block never executed earlier — plus two behavior dimensions: the
// direction-flip rate of conditional branches (a predictability proxy) and
// the interval's distinct-line fraction (working-set density), and four
// proxy-cost dimensions from a functional replay of the memory hierarchy and
// direction predictor: per-instruction L1I, L1D, and L2 miss rates and the
// direction-mispredict rate, each scaled by its approximate cycle penalty so
// the dimension reads as a CPI contribution. Code-identical intervals can
// differ hugely in CPI when one runs cold or unpredictably; the warmth and
// proxy dims separate them so one never stands for the other's cluster.
const featDims = bbvBuckets + 8 + 4

type featVec [featDims]float64

func bbvBucket(block int) int {
	return int((uint32(block) * 2654435761) >> 26) // top 6 bits: 64 buckets
}

// featAccum extracts per-interval feature vectors one record at a time (see
// intervalFeatures). The replay runs a cache hierarchy and direction
// predictor of cfg's geometry continuously across the whole trace, so the
// proxy dims see the same warm-up drift the detailed model would — the one
// signal pure code-mix features are blind to. Both are borrowed from a
// pooled predictors set, which the caller hands in reset and resets again
// afterwards.
type featAccum struct {
	p        *prog.Program
	interval int

	// trace-lifetime state
	seenLines  map[uint32]struct{}
	seenBlocks map[int]struct{}
	lastDir    map[int]bool // per static conditional branch: last direction
	hier       *cache.Hierarchy
	bp         *bpred.Predictor
	curLine    uint32
	// Proxy penalties, in cycles: an L1 miss costs about an L2 access, an L2
	// miss a memory access, a mispredict roughly a front-end refill.
	l1Pen, l2Pen float64

	// current-interval state
	f                                 featVec
	blocks, branches, taken           float64
	loads, stores, accesses           float64
	newLines, newBlocks, flips, conds float64
	ivLines                           map[uint32]struct{}
	iMiss0, dMiss0, l2Miss0, dir0     int64
	count                             int

	feats []featVec
	lens  []int
}

const mispredictPen = 12.0

func newFeatAccum(p *prog.Program, cfg Config, ps *predictors, interval int) *featAccum {
	return &featAccum{
		p:          p,
		interval:   interval,
		seenLines:  make(map[uint32]struct{}),
		seenBlocks: make(map[int]struct{}),
		lastDir:    make(map[int]bool),
		hier:       ps.hier,
		bp:         ps.bp,
		curLine:    math.MaxUint32,
		l1Pen:      float64(cfg.Hier.L2.Latency),
		l2Pen:      float64(cfg.Hier.MemLatency),
		ivLines:    make(map[uint32]struct{}),
	}
}

// RepPlanKey is everything a representative plan reads besides the program
// and its trace: the cache/TLB hierarchy and direction predictor the feature
// pass replays (their geometry, and the L2 and memory latencies newFeatAccum
// weighs misses by), and the interval, window and cluster budget that slice
// the trace and choose the windows. Widths, queues, store sets, the
// mini-graph selection, Warmup, Workers and names never reach the plan, so
// runs on machines that share a memory system and predictor share a plan.
type RepPlanKey struct {
	Hier     cache.HierConfig
	Bpred    bpred.Config
	Interval int
	Window   int
	Clusters int
}

// RepPlanKeyOf returns the key of the plan a representative run on cfg under
// spec uses.
func RepPlanKeyOf(cfg Config, spec SampleSpec) RepPlanKey {
	return RepPlanKey{
		Hier:     cfg.Hier,
		Bpred:    cfg.Bpred,
		Interval: spec.Interval,
		Window:   spec.Window,
		Clusters: spec.Clusters,
	}
}

// add feeds the next trace record into the current interval, flushing a
// completed interval first.
func (a *featAccum) add(rec emu.Rec) {
	if a.count == a.interval {
		a.flush()
	}
	a.count++
	static := int(rec.Index)
	pc := prog.PCOf(static)
	if pcLine := pc >> 5; pcLine != a.curLine {
		a.hier.WarmI(pc)
		a.curLine = pcLine
	}
	p := a.p
	block := p.BlockOf[static]
	if p.Blocks[block].Start == static {
		a.f[bbvBucket(block)]++
		a.blocks++
		if _, ok := a.seenBlocks[block]; !ok {
			a.seenBlocks[block] = struct{}{}
			a.newBlocks++
		}
	}
	in := p.Code[static]
	switch {
	case in.IsBranch():
		a.branches++
		if rec.Taken {
			a.taken++
		}
		if in.IsCondBranch() {
			a.conds++
			if last, ok := a.lastDir[static]; ok && last != rec.Taken {
				a.flips++
			}
			a.lastDir[static] = rec.Taken
			a.bp.UpdateDirection(pc, rec.Taken)
		}
	case in.IsLoad(), in.IsStore():
		if in.IsLoad() {
			a.loads++
		} else {
			a.stores++
		}
		a.hier.WarmD(rec.Addr, in.IsStore())
		a.accesses++
		line := rec.Addr >> 5
		a.ivLines[line] = struct{}{}
		if _, ok := a.seenLines[line]; !ok {
			a.seenLines[line] = struct{}{}
			a.newLines++
		}
	}
}

// flush finalizes the current interval's feature vector and resets the
// per-interval state.
func (a *featAccum) flush() {
	if a.count == 0 {
		return
	}
	f := a.f
	cnt := float64(a.count)
	if a.blocks > 0 {
		for b := 0; b < bbvBuckets; b++ {
			f[b] /= a.blocks
		}
	}
	f[bbvBuckets] = a.branches / cnt
	f[bbvBuckets+1] = a.taken / cnt
	f[bbvBuckets+2] = a.loads / cnt
	f[bbvBuckets+3] = a.stores / cnt
	if a.accesses > 0 {
		f[bbvBuckets+4] = a.newLines / a.accesses
		f[bbvBuckets+6] = float64(len(a.ivLines)) / a.accesses
	}
	if a.blocks > 0 {
		f[bbvBuckets+5] = a.newBlocks / a.blocks
	}
	if a.conds > 0 {
		f[bbvBuckets+7] = a.flips / a.conds
	}
	f[bbvBuckets+8] = a.l1Pen * float64(a.hier.L1I.Misses-a.iMiss0) / cnt
	f[bbvBuckets+9] = a.l1Pen * float64(a.hier.L1D.Misses-a.dMiss0) / cnt
	f[bbvBuckets+10] = a.l2Pen * float64(a.hier.L2.Misses-a.l2Miss0) / cnt
	f[bbvBuckets+11] = mispredictPen * float64(a.bp.DirMisses-a.dir0) / cnt
	a.feats = append(a.feats, f)
	a.lens = append(a.lens, a.count)

	a.f = featVec{}
	a.blocks, a.branches, a.taken = 0, 0, 0
	a.loads, a.stores, a.accesses = 0, 0, 0
	a.newLines, a.newBlocks, a.flips, a.conds = 0, 0, 0, 0
	a.ivLines = make(map[uint32]struct{})
	a.iMiss0, a.dMiss0 = a.hier.L1I.Misses, a.hier.L1D.Misses
	a.l2Miss0, a.dir0 = a.hier.L2.Misses, a.bp.DirMisses
	a.count = 0
}

// finish flushes the trailing partial interval and returns the features.
func (a *featAccum) finish() ([]featVec, []int) {
	a.flush()
	return a.feats, a.lens
}

// intervalFeatures slices tr into Interval-sized pieces (the last may be
// shorter) and extracts one normalized feature vector per piece, replaying
// into ps (see featAccum for the dimensions).
func intervalFeatures(p *prog.Program, tr []emu.Rec, cfg Config, ps *predictors, interval int) (feats []featVec, lens []int) {
	a := newFeatAccum(p, cfg, ps, interval)
	for _, rec := range tr {
		a.add(rec)
	}
	return a.finish()
}

func dist2(a, b *featVec) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return d
}

// --- deterministic k-means ---

const kmeansMaxIters = 50

// kmeansRestarts is how many deterministic seedings kmeans tries; the
// clustering with the lowest within-cluster dispersion wins (first on ties).
const kmeansRestarts = 8

// kmeans clusters feats into k groups, fully deterministically: several
// shifted evenly-spaced seedings are run to convergence and the one with the
// lowest sum of squared member-to-center distances is kept (lowest seed
// index on ties). With fewer than k*kmeansRestarts intervals the shifts
// repeat; a repeated shift reproduces the same clustering, which cannot beat
// its first run, so it is skipped.
func kmeans(feats []featVec, k int) (assign []int, centers []featVec) {
	bestSSE := math.Inf(1)
	n := len(feats)
	for r, prev := 0, -1; r < kmeansRestarts; r++ {
		shift := r * n / (k * kmeansRestarts)
		if shift == prev {
			continue
		}
		prev = shift
		a, c := kmeansSeeded(feats, k, shift)
		var sse float64
		for i := range feats {
			sse += dist2(&feats[i], &c[a[i]])
		}
		if sse < bestSSE {
			bestSSE, assign, centers = sse, a, c
		}
	}
	return assign, centers
}

// kmeansSeeded runs Lloyd iterations from centers seeded at evenly spaced
// interval indices offset by shift (temporal spread is a good prior for
// program phases). Assignment ties break on the lowest cluster index, and an
// emptied cluster is reseeded on the point farthest from its assigned center.
func kmeansSeeded(feats []featVec, k, shift int) (assign []int, centers []featVec) {
	n := len(feats)
	assign = make([]int, n)
	centers = make([]featVec, k)
	for c := 0; c < k; c++ {
		centers[c] = feats[(c*n/k+shift)%n]
	}
	counts := make([]int, k)
	for iter := 0; iter < kmeansMaxIters; iter++ {
		changed := false
		for i := range feats {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := dist2(&feats[i], &centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if iter == 0 || assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		for c := range counts {
			counts[c] = 0
		}
		for _, c := range assign {
			counts[c]++
		}
		// Reseed any emptied cluster on the farthest point from its center.
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				continue
			}
			far, farD := -1, -1.0
			for i := range feats {
				if counts[assign[i]] <= 1 {
					continue // don't empty a singleton cluster
				}
				if d := dist2(&feats[i], &centers[assign[i]]); d > farD {
					far, farD = i, d
				}
			}
			if far < 0 {
				break
			}
			counts[assign[far]]--
			centers[c] = feats[far]
			assign[far] = c
			counts[c] = 1
			changed = true
		}
		if !changed {
			break
		}
		// Recompute centroids.
		for c := range centers {
			centers[c] = featVec{}
		}
		for i, c := range assign {
			for d := 0; d < featDims; d++ {
				centers[c][d] += feats[i][d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				inv := 1 / float64(counts[c])
				for d := 0; d < featDims; d++ {
					centers[c][d] *= inv
				}
			}
		}
	}
	return assign, centers
}

// --- representative run ---

// repPreroll is how many instructions of detailed pre-roll precede each
// measured window (when that much trace exists): the detailed model starts
// this far before the window and the statistics snapshot taken at the window
// boundary is subtracted, so the measurement sees a pipeline already in
// motion instead of paying a fresh machine's fill transient. A window at the
// very start of the trace keeps its fill cost — the real program pays it too.
const repPreroll = 250

// repWindow is one cluster's detailed-simulation job.
type repWindow struct {
	cluster    int
	start, end int   // measured trace range [start, end)
	preStart   int   // detailed pre-roll begins here (start - repPreroll, clamped)
	instrs     int64 // total instructions the cluster stands for (its weight)
}

// repDeltas turns a warmed-window run's stats into the measured-region deltas
// by subtracting the pre-roll snapshot. A window short enough to commit
// completely in the cycle that crosses the pre-roll (a trace's last, short
// interval) leaves no instruction past the snapshot; it is measured
// including its pre-roll instead.
func repDeltas(st *Stats, snap *prerollSnap) windowResult {
	if st.Instrs <= snap.instrs {
		snap = &prerollSnap{}
	}
	return windowResult{
		cycles:      st.Cycles - snap.cycles,
		instrs:      st.Instrs - snap.instrs,
		uops:        st.Uops - snap.uops,
		simulated:   st.Instrs,
		handles:     st.Handles - snap.handles,
		embedded:    st.EmbeddedInstrs - snap.embedded,
		mispredicts: st.BranchMispredicts - snap.mispredicts,
		replay:      st.Replays - snap.replay,
	}
}

// RepPlan is the deterministic outcome of representative-window selection
// for one trace under one RepPlanKey: which windows to simulate in detail,
// what instruction mass each stands for, and the dispersion terms the error
// bound needs. It keeps the window list, not the feature vectors, so holding
// one costs a few KB.
type RepPlan struct {
	key        RepPlanKey
	traceLen   int
	jobs       []repWindow
	warmInstrs int64
	intervals  int
	intraDisp  float64
	totalDisp  float64
}

// NewRepPlan extracts tr's interval features and clusters them into the plan
// a representative run of tr on cfg under spec simulates. The plan reads
// only RepPlanKeyOf(cfg, spec), p and tr, so it can stand for every run of tr
// with that key (see RunRepPlan).
func NewRepPlan(p *prog.Program, tr []emu.Rec, cfg Config, spec SampleSpec) (*RepPlan, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if !spec.NeedsPlan(len(tr)) {
		return nil, fmt.Errorf("pipeline: %s needs no plan for a %d-record trace", spec.Summary(), len(tr))
	}
	ps := getPredictors(cfg)
	defer putPredictors(cfg, ps)
	feats, lens := intervalFeatures(p, tr, cfg, ps, spec.Interval)
	return planRepWindows(feats, lens, len(tr), RepPlanKeyOf(cfg, spec)), nil
}

// planRepWindows selects the detailed windows for a trace of traceLen records
// whose interval features are feats/lens. Fully deterministic.
func planRepWindows(feats []featVec, lens []int, traceLen int, key RepPlanKey) *RepPlan {
	// key.Clusters is the detailed-window budget. Intervals are clustered
	// into at most repMaxClusters phases, and each phase is sampled by several
	// windows (stratified systematic sampling): within a phase the feature
	// distance is tiny but the CPI can still spread, so averaging a few
	// members beats betting everything on a single medoid. When the budget is
	// left at 0, it auto-scales so the detailed windows (plus their pre-rolls)
	// cover about a fifth of the trace — the 5x-speedup operating point the
	// accuracy gate pins.
	budget := key.Clusters
	if budget <= 0 {
		budget = traceLen / (5 * (key.Window + repPreroll))
		if budget < DefaultSampleClusters {
			budget = DefaultSampleClusters
		}
	}
	if budget > len(feats) {
		budget = len(feats)
	}
	k := budget
	if k > repMaxClusters {
		k = repMaxClusters
	}
	assign, centers := kmeans(feats, k)

	type clusterInfo struct {
		instrs    int64
		members   []int // interval indices, ascending
		dispersed float64
	}
	clusters := make([]clusterInfo, k)
	for i, c := range assign {
		ci := &clusters[c]
		ci.instrs += int64(lens[i])
		ci.members = append(ci.members, i)
		ci.dispersed += math.Sqrt(dist2(&feats[i], &centers[c]))
	}

	// Allocate the window budget: one window per non-empty cluster, the rest
	// by largest remainder of the clusters' instruction mass.
	alloc := make([]int, k)
	nonEmpty := 0
	for c := range clusters {
		if len(clusters[c].members) > 0 {
			alloc[c] = 1
			nonEmpty++
		}
	}
	total := float64(traceLen)
	for extra := budget - nonEmpty; extra > 0; extra-- {
		best, bestR := -1, -1.0
		for c := range clusters {
			if alloc[c] == 0 || alloc[c] >= len(clusters[c].members) {
				continue
			}
			if r := float64(clusters[c].instrs)/total - float64(alloc[c]); r > bestR {
				best, bestR = c, r
			}
		}
		if best < 0 {
			break
		}
		alloc[best]++
	}

	// Build the window jobs in cluster order (deterministic): each cluster's
	// member list splits into alloc[c] contiguous runs; the run's medoid (the
	// member closest to the run's own feature mean, latest on ties — among
	// feature-identical members a later one is more likely steady-state) is
	// simulated and carries the run's exact instruction mass.
	var jobs []repWindow
	var warmInstrs int64
	for c := range clusters {
		ci := &clusters[c]
		nc := alloc[c]
		for j := 0; j < nc; j++ {
			lo, hi := j*len(ci.members)/nc, (j+1)*len(ci.members)/nc
			run := ci.members[lo:hi]
			var mass int64
			var mean featVec
			for _, i := range run {
				mass += int64(lens[i])
				for d := 0; d < featDims; d++ {
					mean[d] += feats[i][d]
				}
			}
			for d := 0; d < featDims; d++ {
				mean[d] /= float64(len(run))
			}
			pick, pickD := run[0], math.Inf(1)
			for _, i := range run {
				if d := dist2(&feats[i], &mean); d <= pickD {
					pick, pickD = i, d
				}
			}
			start := pick * key.Interval
			end := start + key.Window
			if end > traceLen {
				end = traceLen
			}
			// Continuous functional warming (the SMARTS idea): every window
			// is warmed with the entire preceding trace, not just a fixed
			// prefix. Cache and predictor state depends on the full access
			// history — a short warm-up systematically overestimates miss
			// rates. runRepWindows gets every window's warm state from one
			// functional pass over the trace, so warming costs one replay
			// per run, not one per window. spec.Warmup only governs uniform
			// mode, where warm-up is re-simulated in detail and must stay
			// short.
			preStart := start - repPreroll
			if preStart < 0 {
				preStart = 0
			}
			warmInstrs += int64(preStart)
			jobs = append(jobs, repWindow{cluster: c, start: start, end: end, preStart: preStart, instrs: mass})
		}
	}

	// Dispersion terms for the heuristic error bound: how dispersed clusters
	// are internally, relative to the trace's total dispersion.
	var gc featVec
	for i := range feats {
		for d := 0; d < featDims; d++ {
			gc[d] += feats[i][d]
		}
	}
	for d := 0; d < featDims; d++ {
		gc[d] /= float64(len(feats))
	}
	var totalDisp, intraDisp float64
	for i := range feats {
		totalDisp += math.Sqrt(dist2(&feats[i], &gc))
	}
	for c := range clusters {
		intraDisp += clusters[c].dispersed
	}

	return &RepPlan{
		key:        key,
		traceLen:   traceLen,
		jobs:       jobs,
		warmInstrs: warmInstrs,
		intervals:  len(feats),
		intraDisp:  intraDisp,
		totalDisp:  totalDisp,
	}
}

// aggregate combines the per-window results of a plan into whole-run
// estimates: each window's per-instruction rates stand for the instruction
// mass it samples; auxiliary counters scale by the same weight.
func (pl *RepPlan) aggregate(results []windowResult, traceLen int) (*Stats, SampleReport, error) {
	total := float64(traceLen)
	est := &Stats{Instrs: int64(traceLen)}
	var cpiW, upiW float64
	var detail int64
	cpiMin, cpiMax := math.Inf(1), math.Inf(-1)
	for i, r := range results {
		if r.err != nil {
			return nil, SampleReport{}, r.err
		}
		if r.instrs <= 0 {
			return nil, SampleReport{}, fmt.Errorf("pipeline: representative window %d measured nothing", i)
		}
		detail += r.simulated
		w := float64(pl.jobs[i].instrs) / total
		cpi := float64(r.cycles) / float64(r.instrs)
		cpiW += w * cpi
		upiW += w * float64(r.uops) / float64(r.instrs)
		if cpi < cpiMin {
			cpiMin = cpi
		}
		if cpi > cpiMax {
			cpiMax = cpi
		}
		scale := float64(pl.jobs[i].instrs) / float64(r.instrs)
		est.Handles += int64(float64(r.handles)*scale + 0.5)
		est.EmbeddedInstrs += int64(float64(r.embedded)*scale + 0.5)
		est.BranchMispredicts += int64(float64(r.mispredicts)*scale + 0.5)
		est.Replays += int64(float64(r.replay)*scale + 0.5)
	}
	est.Cycles = int64(cpiW*total + 0.5)
	est.Uops = int64(upiW*total + 0.5)

	var errBound float64
	if pl.totalDisp > 0 && cpiW > 0 && len(results) > 1 {
		errBound = (pl.intraDisp / pl.totalDisp) * (cpiMax - cpiMin) / cpiW
	}

	report := SampleReport{
		Mode:          SampleRepresentative,
		Intervals:     pl.intervals,
		Windows:       len(pl.jobs),
		DetailInstrs:  detail,
		WarmInstrs:    pl.warmInstrs,
		SimulatedFrac: float64(detail) / total,
		ErrBound:      errBound,
	}
	return est, report, nil
}

// RunRepPlan is the representative-mode body of RunSampledReport: it
// simulates pl's windows in detail on cfg with mg, each warmed by one
// functional pass over tr, and combines them into whole-run estimates. pl
// must have been made by NewRepPlan for a trace of tr's length under the key
// of cfg and spec; any other plan is an error, never an estimate. The run's
// spans nest under ctx's.
func RunRepPlan(ctx context.Context, pl *RepPlan, p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, spec SampleSpec) (*Stats, SampleReport, error) {
	if err := spec.validate(); err != nil {
		return nil, SampleReport{}, err
	}
	switch {
	case !spec.NeedsPlan(len(tr)):
		return nil, SampleReport{}, fmt.Errorf("pipeline: %s needs no plan for a %d-record trace", spec.Summary(), len(tr))
	case pl.key != RepPlanKeyOf(cfg, spec):
		return nil, SampleReport{}, fmt.Errorf("pipeline: representative plan was made for another machine or spec than %s %s", cfg.Name, spec.Summary())
	case pl.traceLen != len(tr):
		return nil, SampleReport{}, fmt.Errorf("pipeline: representative plan was made for a %d-record trace, not %d", pl.traceLen, len(tr))
	}
	ps := getPredictors(cfg)
	defer putPredictors(cfg, ps)
	ctx, runSpan := metrics.StartSpan(ctx, "sampled.rep",
		metrics.L("prog", p.Name), metrics.L("clusters", strconv.Itoa(len(pl.jobs))))
	results := runRepWindows(ctx, p, tr, cfg, mg, pl.jobs, ps, spec.Workers)
	runSpan.End()

	return pl.aggregate(results, len(tr))
}

// runRepWindows simulates jobs in detail, each on a machine functionally
// warmed with the whole trace before its pre-roll, and returns the results
// in job order. One warm pass over tr, into ps (which must arrive reset),
// serves every window: the windows are prepared in ascending preStart order, and
// at each window's preStart the pass's state is copied into the window's
// machine. With workers > 1 the calling goroutine runs the warm pass and
// hands each prepared machine to a worker.
func runRepWindows(ctx context.Context, p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, jobs []repWindow, ps *predictors, workers int) []windowResult {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].preStart < jobs[order[b]].preStart })

	var ws *warmReplay
	pos := 0
	prepare := func(i int) repRun {
		w := jobs[i]
		m, maxCycles, err := setupMachine(p, tr[w.preStart:w.end], cfg, mg, nil, nil, defaultSched, true)
		if err != nil {
			return repRun{i: i, err: err}
		}
		if ws == nil {
			// The pass outlives m, which returns to the pool when its window
			// ends. Layouts are immutable, so it may keep m's; it must never
			// keep m's uop templates, which the machine's next run refills.
			ws = newWarmReplay(ps, p, m.layout)
		}
		for ; pos < w.preStart; pos++ {
			ws.add(tr[pos])
		}
		m.predictors.copyFrom(ps)
		m.predictors.clearStats()
		return repRun{i: i, w: w, m: m, maxCycles: maxCycles}
	}

	results := make([]windowResult, len(jobs))
	if workers <= 1 {
		for _, i := range order {
			results[i] = prepare(i).run(ctx)
		}
		return results
	}
	runs := make(chan repRun)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := metrics.WithTid(ctx, sampleTidBase+w)
			for r := range runs {
				results[r.i] = r.run(wctx)
			}
		}(w)
	}
	for _, i := range order {
		runs <- prepare(i)
	}
	close(runs)
	wg.Wait()
	return results
}

// repRun is one warmed window, ready to simulate: job i of the plan on
// machine m, or the error that kept it from being set up.
type repRun struct {
	i         int
	w         repWindow
	m         *machine
	maxCycles int64
	err       error
}

// run simulates the window in detail, measuring only past the pre-roll.
func (r repRun) run(ctx context.Context) windowResult {
	if r.err != nil {
		return windowResult{err: r.err}
	}
	_, sp := metrics.StartSpan(ctx, "sample.repwindow",
		metrics.L("index", strconv.Itoa(r.i)), metrics.L("start", strconv.Itoa(r.w.start)))
	var snap prerollSnap
	st, err := r.m.mainLoop(r.maxCycles, int64(r.w.start-r.w.preStart), &snap)
	sp.End()
	noteSampleWindow()
	if err != nil {
		return windowResult{err: err}
	}
	return repDeltas(st, &snap)
}
