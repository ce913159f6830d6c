package pipeline

import (
	"sync"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
)

// Machine pooling. A machine's backing state — caches, predictor tables,
// rings, slot arrays, uop slabs — depends only on its Config, and a full
// simulation run leaves all of it allocated at steady-state size. Pooling
// finished machines per Config and resetting them in place makes repeated
// runs (sweeps, sampled windows, benchmarks) allocation-free after the
// first: runSched draws from the pool, simulates, copies the stats out and
// returns the machine.
//
// Correctness does not ride on which pooled machine a run gets: no
// simulated outcome depends on slot numbering or pointer identity (the
// ready heap orders by (wake, seq), issue candidates sort by seq), reset
// restores every field makeUop does not bar the predictors, and
// setupMachine resets those too unless the run overwrites them whole with
// an exact copy (a representative window's warm state). So a reused
// machine is indistinguishable from a fresh one.
// TestMachineReuseDeterministic holds this invariant.
var machinePools sync.Map // Config -> *sync.Pool of *machine

// poolableSlots bounds the slot-array size a machine may retain in the
// pool. Recycling keeps every run well under the initial capacity; a run
// with recycling off (the noRecycle test hook) grows a slab per ~256 uops
// and would pin megabytes, so it is simulated and dropped.
const poolableSlots = 4096

// poolableRecs bounds the slack-profile record buffer a pooled machine
// keeps: every workload's trace fits (6 MiB of records), and a longer
// profiling run's buffer is dropped rather than pinned in the pool.
const poolableRecs = 1 << 18

func getMachine(cfg Config) *machine {
	if pi, ok := machinePools.Load(cfg); ok {
		if m, _ := pi.(*sync.Pool).Get().(*machine); m != nil {
			m.reset()
			return m
		}
	}
	return newMachine(cfg)
}

// putMachine returns a successfully-finished machine to its Config's pool.
// Per-run references (program, trace, observer, profile, layout) are
// dropped first so pooling a machine never extends their lifetime. The uop
// template table stays for its capacity: like the layout cache, it pins the
// last run's selection until the next run refills it or the GC clears the
// pool.
func putMachine(m *machine) {
	if len(m.hot.uops) > poolableSlots {
		return
	}
	m.p = nil
	m.tr = nil
	m.watch = nil
	m.emitUops = false
	m.prof = nil
	if cap(m.profRecs) > poolableRecs {
		m.profRecs = nil
	}
	m.mon = nil
	m.layout = nil
	m.mgc = MGConfig{}
	pi, _ := machinePools.LoadOrStore(m.cfg, &sync.Pool{})
	pi.(*sync.Pool).Put(m)
}

// Predictor sets. Representative sampling borrows a standalone predictors
// set per run for its feature pass and its warm pass. The set depends only
// on the three geometries below, which the Reduced, Baseline and Width8
// machines share, so one pool serves all of them.
type predictorsKey struct {
	hier      cache.HierConfig
	bpred     bpred.Config
	storeSets int
}

var predictorPools sync.Map // predictorsKey -> *sync.Pool of *predictors

func predictorsKeyOf(cfg Config) predictorsKey {
	return predictorsKey{cfg.Hier, cfg.Bpred, cfg.StoreSetEntries}
}

// getPredictors returns a predictors set for cfg's geometry in its
// post-New state.
func getPredictors(cfg Config) *predictors {
	if pi, ok := predictorPools.Load(predictorsKeyOf(cfg)); ok {
		if ps, _ := pi.(*sync.Pool).Get().(*predictors); ps != nil {
			return ps
		}
	}
	ps := newPredictors(cfg)
	return &ps
}

// putPredictors resets ps and returns it to the pool for cfg's geometry.
func putPredictors(cfg Config, ps *predictors) {
	ps.reset()
	pi, _ := predictorPools.LoadOrStore(predictorsKeyOf(cfg), &sync.Pool{})
	pi.(*sync.Pool).Put(ps)
}

// newMachine builds a machine with every queue sized from the config up
// front: the structural-hazard checks in rename and fetch bound their
// occupancy, so the hot loop never grows them. Both schedulers' structures
// are allocated so a pooled machine can serve either.
func newMachine(cfg Config) *machine {
	m := &machine{
		cfg:        cfg,
		budget:     issueBudgetOf(cfg),
		predictors: newPredictors(cfg),
		freeRegs:   cfg.PhysRegs - isa.NumRegs,

		fetchPending:   newRing[fetchItem](8),
		fetchQ:         newRing[*uop](cfg.FetchWidth * 9),
		window:         newRing[*uop](cfg.ROBEntries),
		inflightLoads:  newRing[*uop](cfg.LQEntries),
		inflightStores: newRing[*uop](cfg.SQEntries),
		pendingViol:    make([]violation, 0, 16),
		retired:        newRing[*uop](cfg.ROBEntries),

		iq:           make([]*uop, 0, cfg.IQEntries),
		readyQ:       make([]readyEnt, 0, cfg.IQEntries),
		readyNext:    make([]int32, 0, cfg.IQEntries),
		issueScratch: make([]int32, 0, cfg.IQEntries),
		// A consumer waits on at most four producers (three sources plus a
		// StoreSets store), and waiters are a subset of the issue queue.
		wakeNodes: make([]wakeNode, 0, 4*cfg.IQEntries),
		wakeFree:  -1,
	}
	// Size the slot arrays for the worst-case live-uop count: the window
	// and retired queue (ROB each), the fetch queue, parked register
	// writers, and slack for transients. Recycling keeps runs inside it.
	m.hot = newHotState(cfg.ROBEntries*2 + cfg.FetchWidth*9 + isa.NumRegs + 64)
	for i := range m.wheelHead {
		m.wheelHead[i] = -1
	}
	return m
}

// reset restores a pooled machine to its post-newMachine state. Everything
// makeUop re-initializes per slot is left stale, and so are the predictors,
// which setupMachine resets unless the run copies them in whole; everything
// else the run mutated is restored here.
func (m *machine) reset() {
	m.stats = Stats{}
	m.cycle = 0
	m.seq = 0
	m.fetchIdx = 0
	m.fetchStall = 0
	m.pendingBranch = nil
	m.fetchPending.clear()
	m.fetchQ.clear()
	m.window.clear()
	m.iq = m.iq[:0]
	m.inflightLoads.clear()
	m.inflightStores.clear()
	m.pendingViol = m.pendingViol[:0]
	m.freeRegs = m.cfg.PhysRegs - isa.NumRegs
	m.lqUsed, m.sqUsed = 0, 0
	m.lastWriter = [isa.NumRegs]*uop{}
	m.inBlock = false
	m.headIssue = 0
	m.profRecs = m.profRecs[:0]
	m.retired.clear()
	m.squashScratch = m.squashScratch[:0]

	m.readyQ = m.readyQ[:0]
	m.readyNext = m.readyNext[:0]
	m.issueScratch = m.issueScratch[:0]
	m.iqCount = 0
	m.wakeNodes = m.wakeNodes[:0]
	m.wakeFree = -1
	for i := range m.wheelHead {
		m.wheelHead[i] = -1
	}
	m.wheelBits = [wheelSize / 64]uint64{}
	m.wheelCnt = 0

	// Every slot returns to the free list; a finished run holds uops only
	// in the retired queue, rename table and free list, all cleared above.
	m.freeUops = m.freeUops[:0]
	for _, u := range m.hot.uops {
		m.freeUops = append(m.freeUops, u)
	}
}
