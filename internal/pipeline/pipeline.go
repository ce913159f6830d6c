package pipeline

import (
	"fmt"
	"math"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/slack"
)

type uopKind uint8

const (
	kindSingleton    uopKind = iota
	kindHandle               // mini-graph handle
	kindOverheadJump         // outlining jump of a disabled mini-graph
)

const never = int64(math.MaxInt64)

// uop is one in-flight micro-op: a singleton instruction, a mini-graph
// handle (one uop standing for up to four instructions), or an outlining
// overhead jump.
//
// Its decoded, per-static facts — kind, op, class, sources, destination,
// memory and branch flags — live in the shared template it points at (see
// static.go). Fields the scheduler touches every cycle — issue/ready/resolve
// times, wait counts, wakeup chains, dependence slots, squash/commit flags —
// live in the machine's hotState arrays (see soa.go), indexed by slot. The
// struct keeps the per-instance state read at most a handful of times per
// uop: fetch-time facts, memory/branch bookkeeping, recycling state and
// profiling extras.
type uop struct {
	*uopStatic

	slot     int32 // index into the machine's hotState arrays (permanent)
	seq      int64
	traceIdx int // first trace record index (overhead jumps borrow their MG's)
	static   int // static index of the (first) instruction

	fetchCycle  int64
	renameReady int64
	renameCycle int64 // actual rename cycle (-1 until renamed; pipetrace)

	srcReadyC [3]int64

	prevWriter *uop

	memAddr       uint32
	memCycle      int64 // cycle the load's memory access begins
	forwardedFrom *uop

	mispred bool
	replays uint16 // wasted issue attempts (pipetrace)

	// Recycling state (see reclaim): refBarrier is the machine seq at this
	// uop's commit — once every older uop has left the window, no in-flight
	// uop can still hold a pointer to this one. writerDead marks a committed
	// register writer whose successor writer has also committed (it can no
	// longer be re-captured through lastWriter, even across a flush).
	// parked marks a writer that cleared its barrier while still live in
	// the rename table.
	refBarrier int64
	writerDead bool
	parked     bool

	// Slack-Dynamic per-instance detection state.
	serialized bool

	// Pipetrace-only dependence/serialization observables (populated only
	// when an observer with an active trace is attached; stay zero and cost
	// nothing otherwise).
	serLat int64 // completion delay vs. the dataflow-feasible internal schedule
	serOut int64 // register-output delay vs. that schedule
	memLat int64 // load cycles beyond the L1-hit path
	serExt bool  // issued data-bound on a serializing external input

	// Profiling (see recordProfile). minConsIss and fwdConsExec collect
	// local slack until commit; later consumers lower the record at rec.
	// nCons counts the reads tracked as global-slack edges (capped at
	// maxTrackedConsumers); tracked marks which of this uop's sources are.
	bbHead      bool // first instruction of a basic-block instance
	nCons       uint8
	tracked     uint8
	rec         int32 // profile record index, assigned at commit
	minConsIss  int64
	fwdConsExec int64
}

// fetchItem is a prepared fetch unit awaiting its fetch cycle: a template
// and the trace position of the instance fetch makes of it.
type fetchItem struct {
	st        *uopStatic
	static    int
	traceIdx  int
	addr      uint32
	endsGroup bool // taken control transfer: ends the fetch group
}

type violation struct {
	atCycle int64
	load    *uop
	store   *uop
}

type machine struct {
	cfg Config
	mgc MGConfig
	p   *prog.Program
	tr  []emu.Rec

	predictors // caches and TLBs, branch predictor, store sets
	mon        *mgMonitor

	stats Stats
	prof  *slack.Accumulator
	watch *obs.Observer // nil when observability is off (the common case)

	// emitUops is true when the observer has a pipetrace, which wants uop
	// records; obsSrcs is the reused source-list scratch for those records.
	emitUops bool
	obsSrcs  [3]int

	cycle int64
	seq   int64

	fetchIdx       int
	fetchStall     int64 // no fetch before this cycle
	pendingBranch  *uop  // unresolved mispredicted control transfer
	fetchPending   ring[fetchItem]
	fetchQ         ring[*uop]
	window         ring[*uop] // ROB, oldest first
	iq             []*uop     // issue queue, oldest first
	inflightStores ring[*uop] // renamed stores, oldest first
	inflightLoads  ring[*uop] // renamed loads, oldest first
	pendingViol    []violation
	freeRegs       int
	lqUsed, sqUsed int
	lastWriter     [isa.NumRegs]*uop
	layout         *minigraph.Layout
	budget         issueBudget // the per-cycle issue bandwidth and ports

	// The run's decoded uop templates (see static.go): one per static
	// instruction and one per selected mini-graph instance, refilled by
	// setupMachine and kept across pooling for their capacity.
	statics []uopStatic
	handles []uopStatic

	// Slack profiling: inBlock is false until a basic-block head renames
	// after start or a flush; headIssue is the issue cycle of the last
	// committed head; profRecs holds one record per committed uop, sized
	// from the trace and kept across pooled runs (see poolableRecs).
	inBlock   bool
	headIssue int64
	profRecs  []profRec

	// Last computed layout, kept across pooling: layouts are immutable and
	// depend only on (program, selection), and a pooled machine almost
	// always re-runs the same workload. The pinned program/selection are
	// released whenever the GC clears the pool.
	layoutP   *prog.Program
	layoutSel *minigraph.Selection
	layoutC   *minigraph.Layout

	// Uop recycling: committed uops queue in retired until provably
	// unreferenced, then return to freeUops for reuse by makeUop.
	recycle       bool
	freeUops      []*uop
	retired       ring[*uop]
	squashScratch []*uop

	// Slot-indexed structure-of-arrays for the fields the scheduler hot
	// loops touch every cycle (see soa.go). Both schedulers use it.
	hot hotState

	// Event-scheduler state (see sched.go): the ready-queue heap of issue
	// candidates keyed by earliest-issue cycle, the flat list of candidates
	// waking exactly next cycle (the dominant case, kept off the heap), the
	// per-cycle candidate scratch, and the issue-queue occupancy (the scan
	// scheduler reads len(iq) instead). Wakeup chains thread through the
	// wakeNodes pool; freed nodes chain off wakeFree for reuse.
	sched        SchedKind
	readyQ       []readyEnt
	readyNext    []int32
	issueScratch []int32
	iqCount      int
	wakeNodes    []wakeNode
	wakeFree     int32

	// Calendar wheel for wakes within wheelSize cycles: slot s chains the
	// uops waking at cycles ≡ s (mod wheelSize) through hot.link, with an
	// occupancy bitmap so the idle-skip logic finds the earliest pending
	// wake in a few word scans.
	wheelHead [wheelSize]int32
	wheelBits [wheelSize / 64]uint64
	wheelCnt  int
}

// iqLen returns the issue-queue occupancy under either scheduler.
func (m *machine) iqLen() int {
	if m.sched == SchedScan {
		return len(m.iq)
	}
	return m.iqCount
}

// noRecycle disables uop recycling; tests flip it to verify recycling
// changes no architectural outcome.
var noRecycle bool

// Run replays the committed trace of program p on the configured machine
// and returns timing statistics. mg configures mini-graph processing (zero
// MGConfig = singleton execution). When prof is non-nil the run records a
// slack profile into it (profiling runs should be singleton runs, matching
// the paper's use of non-mini-graph profiles).
func Run(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, prof *slack.Accumulator) (*Stats, error) {
	return runSched(p, tr, cfg, mg, prof, nil, defaultSched)
}

// RunObserved is Run with an attached observer collecting pipetrace
// records and/or interval samples (see internal/obs). A nil or inactive
// observer makes it exactly Run: the hot loop pays one nil check per
// cycle and per committed uop.
func RunObserved(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, prof *slack.Accumulator, watch *obs.Observer) (*Stats, error) {
	return runSched(p, tr, cfg, mg, prof, watch, defaultSched)
}

// runSched is RunObserved with an explicit scheduler choice, bypassing the
// process-wide default. The differential tests use it to run both
// schedulers side by side; results are byte-identical either way.
func runSched(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, prof *slack.Accumulator, watch *obs.Observer, sched SchedKind) (*Stats, error) {
	if len(tr) == 0 {
		return nil, fmt.Errorf("pipeline: empty trace")
	}
	m, maxCycles, err := setupMachine(p, tr, cfg, mg, prof, watch, sched, false)
	if err != nil {
		return nil, err
	}
	return m.mainLoop(maxCycles, 0, nil)
}

// prerollSnap is a mid-run statistics snapshot, taken the cycle the
// committed-instruction count crosses a pre-roll threshold. Subtracting it
// from the final stats measures the tail of the run as seen from a pipeline
// already in motion — without the fill transient a fresh machine pays.
type prerollSnap struct {
	cycles, instrs, uops                   int64
	handles, embedded, mispredicts, replay int64
}

// setupMachine readies a pooled machine to simulate tr: config, program,
// trace, layout, uop templates, observers, and predictors reset to their
// post-New state.
// A sampled window's caller then warms m.predictors, which must happen after
// setup because the warm-up places instructions through the machine's
// layout. warmCopy says the caller overwrites the predictors whole with an
// exact copy of a warm pass (copyFrom), so they are not reset.
func setupMachine(p *prog.Program, tr []emu.Rec, cfg Config, mg MGConfig, prof *slack.Accumulator, watch *obs.Observer, sched SchedKind, warmCopy bool) (*machine, int64, error) {
	if watch != nil && !watch.Active() {
		watch = nil
	}
	if cfg.PhysRegs-isa.NumRegs <= 0 {
		return nil, 0, fmt.Errorf("pipeline: config %q has no rename registers", cfg.Name)
	}
	m := getMachine(cfg)
	if !warmCopy {
		m.predictors.reset()
	}
	m.mgc = mg
	m.p = p
	m.tr = tr
	m.watch = watch
	m.emitUops = watch != nil && watch.Trace != nil
	m.sched = sched
	m.prof = prof
	m.recycle = !noRecycle
	if mg.Enabled() {
		if m.layoutP == p && m.layoutSel == mg.Selection {
			m.layout = m.layoutC
		} else {
			m.layout = minigraph.NewLayout(p, mg.Selection)
			m.layoutP, m.layoutSel, m.layoutC = p, mg.Selection, m.layout
		}
		m.mon = newMGMonitor(&mg, mg.Selection.NumTemplates, &m.stats)
		if watch != nil {
			m.mon.trace = watch.Trace
		}
	} else if m.layoutP == p && m.layoutSel == nil {
		m.layout = m.layoutC
	} else {
		m.layout = minigraph.IdentityLayout(p)
		m.layoutP, m.layoutSel, m.layoutC = p, nil, m.layout
	}
	m.decodeStatics(p, mg.Selection)
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	return m, maxCycles, nil
}

// mainLoop runs the simulation to completion and returns the detached stats,
// pooling the machine on success. If preroll > 0, *snap receives the
// statistics snapshot taken when the committed-instruction count first
// reaches preroll.
func (m *machine) mainLoop(maxCycles int64, preroll int64, snap *prerollSnap) (*Stats, error) {
	p := m.p
	event := m.sched != SchedScan
	// Every profile record stands for at least one trace record, so one
	// trace-sized buffer holds the run's records without growing.
	if m.prof != nil && cap(m.profRecs) < len(m.tr) {
		m.profRecs = make([]profRec, 0, len(m.tr))
	}
	for {
		if m.done() {
			break
		}
		if m.cycle > maxCycles {
			return nil, fmt.Errorf("pipeline: %s on %s exceeded %d cycles (deadlock?)", p.Name, m.cfg.Name, maxCycles)
		}
		m.checkViolations()
		m.commit()
		if preroll > 0 && m.stats.Instrs >= preroll {
			*snap = prerollSnap{
				cycles:      m.cycle,
				instrs:      m.stats.Instrs,
				uops:        m.stats.Uops,
				handles:     m.stats.Handles,
				embedded:    m.stats.EmbeddedInstrs,
				mispredicts: m.bp.DirMisses + m.stats.RASMispredicts,
				replay:      m.stats.Replays,
			}
			preroll = 0
		}
		m.resolvePendingBranch()
		if event {
			m.issueEvent()
		} else {
			m.issue()
		}
		m.rename()
		m.fetch()
		if m.mon != nil && m.mgc.Dynamic {
			m.mon.tick(m.cycle)
		}
		if m.watch != nil {
			m.sampleInterval()
		}
		if event {
			m.advanceCycle(maxCycles)
		} else {
			m.cycle++
		}
	}

	if m.watch != nil && m.watch.Intervals != nil {
		m.watch.Intervals.Final(m.snapshot())
	}
	m.drainProfile()
	m.stats.Cycles = m.cycle
	m.stats.BranchMispredicts = m.bp.DirMisses + m.stats.RASMispredicts
	m.stats.BTBMisses = m.bp.BTBMisses
	m.stats.L1IMissRate = m.hier.L1I.MissRate()
	m.stats.L1DMissRate = m.hier.L1D.MissRate()
	m.stats.L2MissRate = m.hier.L2.MissRate()
	m.stats.MemAccesses = m.hier.MemAccesses
	m.stats.ITLBMisses = m.hier.ITLB.Misses()
	m.stats.DTLBMisses = m.hier.DTLB.Misses()
	noteRun(&m.stats)
	// Copy the stats out and pool the machine: the caller's *Stats must not
	// alias state a later run will overwrite. Error paths above skip the
	// pool — a deadlocked machine's structures are not provably clean.
	st := m.stats
	putMachine(m)
	return &st, nil
}

func (m *machine) done() bool {
	return m.fetchIdx >= len(m.tr) && m.fetchPending.len() == 0 &&
		m.fetchQ.len() == 0 && m.window.len() == 0
}

// --- commit ---

func (m *machine) commit() {
	h := &m.hot
	for n := 0; n < m.cfg.CommitWidth && m.window.len() > 0; n++ {
		u := m.window.at(0)
		s := u.slot
		if h.issue[s] < 0 || h.execDone[s] > m.cycle {
			break
		}
		h.committed[s] = true
		m.window.popFront()
		m.stats.Uops++
		switch u.kind {
		case kindSingleton:
			m.stats.Instrs++
		case kindHandle:
			m.stats.Instrs += int64(u.nRecs)
			m.stats.EmbeddedInstrs += int64(u.nRecs)
			m.stats.Handles++
		case kindOverheadJump:
			m.stats.OverheadJumps++
		}
		if m.prof != nil && u.kind != kindOverheadJump {
			m.recordProfile(u)
		}
		if u.writesReg {
			m.freeRegs++ // the previous mapping of dstReg dies
			if pw := u.prevWriter; pw != nil {
				// pw is the previous committed writer of dstReg. With this
				// commit it can never be restored into lastWriter by a flush
				// (that would require squashing u), and rename order
				// guarantees every consumer that captured pw has already
				// committed — pw is now recyclable.
				pw.writerDead = true
				if pw.parked {
					pw.parked = false
					m.freeUops = append(m.freeUops, pw)
				}
				u.prevWriter = nil
			}
		}
		if u.isLoad {
			m.lqUsed--
			removeInflight(&m.inflightLoads, u)
		}
		if u.isStore {
			m.sqUsed--
			removeInflight(&m.inflightStores, u)
			m.ss.CompleteStore(u.memPC, u.seq)
			// The store's write updates cache state at commit.
			m.hier.AccessD(m.cycle, u.memAddr, true)
		}
		if m.emitUops {
			m.observeUop(u, m.cycle, false)
		}
		if m.recycle {
			u.refBarrier = m.seq
			m.retired.pushBack(u)
		}
	}
	if m.recycle {
		m.reclaim()
	}
}

// reclaim returns committed uops to the free list once nothing can still
// reference them. References to a uop live in younger in-flight uops
// (srcProd, waitStore, forwardedFrom — all captured before its commit, so
// holders have seq < refBarrier), in the rename table (lastWriter /
// prevWriter chains — dead once a younger same-register writer commits,
// tracked by writerDead), in the pending-violation list, and in
// pendingBranch. Commit is in-order, so the retired queue clears its
// barriers in FIFO order; only live register writers park out of order.
func (m *machine) reclaim() {
	for m.retired.len() > 0 {
		h := m.retired.at(0)
		if m.window.len() > 0 && m.window.at(0).seq < h.refBarrier {
			break // an older uop is still in flight and may reference h
		}
		if h == m.pendingBranch || m.referencedByViolation(h) {
			break // transient: clears within a cycle or two
		}
		m.retired.popFront()
		if h.writesReg && !h.writerDead {
			h.parked = true // freed later, when its successor writer commits
			continue
		}
		m.freeUops = append(m.freeUops, h)
	}
}

func (m *machine) referencedByViolation(h *uop) bool {
	for i := range m.pendingViol {
		if m.pendingViol[i].load == h || m.pendingViol[i].store == h {
			return true
		}
	}
	return false
}

// removeInflight drops u from an in-flight ring. Commit removes the oldest
// live entry (in-order commit puts u at the front); flushFrom removes a
// youngest suffix young-to-old (u at the back); the shift fallback keeps
// this robust to any other caller.
func removeInflight(r *ring[*uop], u *uop) {
	n := r.len()
	switch {
	case n == 0:
	case r.at(0) == u:
		r.popFront()
	case r.at(n-1) == u:
		r.popBack()
	default:
		for i := 1; i < n-1; i++ {
			if r.at(i) == u {
				r.removeAt(i)
				return
			}
		}
	}
}

// findInflightStore locates the in-flight store with the given seq tag
// (unique, so search direction is immaterial; backward finds the usually
// recent StoreSets match sooner). Returns nil when the store already left
// the window.
func (m *machine) findInflightStore(tag int64) *uop {
	for i := m.inflightStores.len() - 1; i >= 0; i-- {
		if st := m.inflightStores.at(i); st.seq == tag {
			return st
		}
	}
	return nil
}

// --- branch resolution / fetch unblocking ---

func (m *machine) resolvePendingBranch() {
	b := m.pendingBranch
	if b == nil {
		return
	}
	h := &m.hot
	s := b.slot
	if h.squashed[s] {
		m.pendingBranch = nil
		return
	}
	if h.issue[s] >= 0 && m.cycle >= h.resolve[s] {
		m.pendingBranch = nil
		if m.fetchStall < h.resolve[s]+1 {
			m.fetchStall = h.resolve[s] + 1
		}
	}
}

// --- issue ---

func (m *machine) issue() {
	h := &m.hot
	bud := m.budget
	kept := m.iq[:0]
	for qi := 0; qi < len(m.iq); qi++ {
		u := m.iq[qi]
		if bud.width == 0 {
			kept = append(kept, m.iq[qi:]...)
			break
		}
		if !m.ready(u) {
			kept = append(kept, u)
			continue
		}
		meta := h.meta[u.slot]
		if !bud.admits(meta) {
			kept = append(kept, u)
			continue
		}
		bud.consume(meta)
		// Register read: if a speculatively-woken source turns out to be a
		// missed load, this issue attempt is wasted and the uop replays
		// when the value truly arrives.
		if latest := m.latestSrcReady(u.slot); latest > m.cycle {
			m.stats.Replays++
			u.replays++
			h.earliest[u.slot] = latest
			kept = append(kept, u)
			continue
		}
		m.execute(u)
	}
	m.iq = kept
}

// ready reports whether u may attempt to issue this cycle. Consumers of
// loads wake on the L1-hit-speculative ready time; if the load actually
// missed, the attempt is caught at register read and replayed — consuming
// issue bandwidth, per Table 1's "cache miss replays are modeled".
func (m *machine) ready(u *uop) bool {
	h := &m.hot
	s := u.slot
	if m.cycle < h.earliest[s] {
		return false
	}
	src := h.srcs[s]
	for i := 0; i < u.nSrc; i++ {
		p := src[i]
		if p < 0 {
			continue
		}
		if h.issue[p] < 0 {
			return false
		}
		wake := h.readyOut[p]
		// specReady is written only by singleton-load execution, so gate the
		// read on the producer kind rather than resetting the slot per uop.
		if h.meta[p]&(metaLoad|metaHandle) == metaLoad {
			if sp := h.specReady[p]; sp > 0 && sp < wake {
				wake = sp // speculative load-hit wakeup
			}
		}
		if wake > m.cycle {
			return false
		}
	}
	if w := h.waitSlot[s]; w >= 0 && !h.squashed[w] && !h.committed[w] {
		if h.issue[w] < 0 || h.resolve[w] > m.cycle {
			return false
		}
	}
	return true
}

// latestSrcReady returns the cycle at which every source value of slot s
// truly exists (the register-read check that triggers replays).
func (m *machine) latestSrcReady(s int32) int64 {
	h := &m.hot
	src := h.srcs[s]
	n := int(h.meta[s] >> metaNSrcShift)
	var latest int64
	for i := 0; i < n; i++ {
		if p := src[i]; p >= 0 && h.readyOut[p] > latest {
			latest = h.readyOut[p]
		}
	}
	return latest
}

// recordSrcReady returns the latest source-value ready cycle (for
// Slack-Dynamic detection) and records per-source ready cycles.
func (m *machine) recordSrcReady(u *uop) (lastReady int64, lastIdx int) {
	h := &m.hot
	src := h.srcs[u.slot]
	lastReady, lastIdx = 0, -1
	for i := 0; i < u.nSrc; i++ {
		var r int64
		if p := src[i]; p >= 0 {
			r = h.readyOut[p]
		}
		u.srcReadyC[i] = r
		if r >= lastReady {
			lastReady, lastIdx = r, i
		}
	}
	return lastReady, lastIdx
}

// execute computes all post-issue timing for u at the current cycle.
func (m *machine) execute(u *uop) {
	h := &m.hot
	s := u.slot
	h.issue[s] = m.cycle
	lastReady, lastIdx := m.recordSrcReady(u)

	// Consumers update producer local slack (profiling) and feed the
	// Slack-Dynamic consumer-delay detector (rule #4's hardware analogue).
	src := h.srcs[s]
	for i := 0; i < u.nSrc; i++ {
		p := src[i]
		if p < 0 {
			continue
		}
		if m.prof != nil {
			m.noteConsumer(u, i, p)
		}
		if h.meta[p]&metaHandle != 0 {
			m.noteConsumerOfHandle(m.cycle, h.uops[p])
		}
	}

	exec := m.cycle + int64(m.cfg.IssueToExec)
	switch u.kind {
	case kindHandle:
		m.executeHandle(u, exec, lastReady, lastIdx)
	case kindOverheadJump:
		h.resolve[s] = exec + 1
		h.execDone[s] = exec + 1
		h.readyOut[s] = exec + 1
	default:
		m.executeSingleton(u, exec)
	}
}

func (m *machine) executeSingleton(u *uop, exec int64) {
	h := &m.hot
	s := u.slot
	switch {
	case u.isLoad:
		u.memCycle = exec + 1 // address generation
		ro := m.loadAccess(u, u.memCycle)
		h.readyOut[s] = ro
		h.execDone[s] = ro
		// Consumers wake assuming an L1 hit; a miss triggers replays.
		sp := u.memCycle + int64(m.hier.L1DHitLatency())
		if sp > ro {
			sp = ro
		}
		h.specReady[s] = sp
		m.loadIssueChecks(u)
	case u.isStore:
		h.resolve[s] = exec // address and data resolved
		h.execDone[s] = exec
		h.readyOut[s] = 0 // no register output (pipetrace reads this)
		m.storeIssueChecks(u)
	case u.hasBranch:
		h.resolve[s] = exec + 1
		h.execDone[s] = exec + 1
		h.readyOut[s] = exec + 1 // calls write the return address
	default:
		h.readyOut[s] = exec + u.lat
		h.execDone[s] = exec + u.lat
	}
}

// executeHandle models MGT-driven execution on an ALU pipeline: constituent
// k issues one cycle after constituent k-1 finishes (forward-only interior
// network, micro-code style), which realizes internal serialization.
func (m *machine) executeHandle(u *uop, exec int64, lastReady int64, lastIdx int) {
	h := &m.hot
	s := u.slot
	c := u.mg.Cand
	t := h.issue[s]   // constituent-k issue time (rule #2 of the paper)
	h.readyOut[s] = 0 // stays 0 for output-less handles (pipetrace reads this)
	var maxDone int64
	var lats [4]int64 // per-constituent latencies (pipetrace attribution)
	for k := 0; k < u.nRecs; k++ {
		ek := t + int64(m.cfg.IssueToExec)
		var rk int64
		var lat int64
		switch u.cons[k].kind {
		case consLoad:
			u.memCycle = ek + 1
			rk = m.loadAccess(u, u.memCycle)
			lat = rk - ek
			if m.emitUops {
				u.memLat = rk - (u.memCycle + int64(m.hier.L1DHitLatency()))
				if u.memLat < 0 {
					u.memLat = 0
				}
			}
		case consStore:
			h.resolve[s] = ek
			rk = ek
			lat = 1
		case consBranch:
			rk = ek + 1
			h.resolve[s] = rk
			lat = 1
		default:
			lat = int64(u.cons[k].lat)
			rk = ek + lat
		}
		if k == c.OutputIdx {
			h.readyOut[s] = rk
		}
		if rk > maxDone {
			maxDone = rk
		}
		lats[k] = lat
		t += lat
	}
	h.execDone[s] = maxDone
	if u.isLoad {
		m.loadIssueChecks(u)
	}
	if u.isStore {
		m.storeIssueChecks(u)
	}

	// Pipetrace attribution: measure the handle's serialization delay
	// against the dataflow-feasible internal schedule — constituent k could
	// have started once its internal producers finished, so any completion
	// beyond that is the serial ALU pipeline's doing. A pure dependence
	// chain measures 0; independent constituents measure the induced delay.
	if m.emitUops {
		var f [4]int64
		var maxF int64
		for k := 0; k < u.nRecs; k++ {
			var start int64
			deps := c.InternalDeps(k)
			for j := 0; j < k; j++ {
				if deps&(1<<uint(j)) != 0 && f[j] > start {
					start = f[j]
				}
			}
			f[k] = start + lats[k]
			if f[k] > maxF {
				maxF = f[k]
			}
		}
		u.serLat = h.execDone[s] - (exec + maxF)
		if u.serLat < 0 {
			u.serLat = 0
		}
		if c.OutputIdx >= 0 {
			u.serOut = h.readyOut[s] - (exec + f[c.OutputIdx])
			if u.serOut < 0 {
				u.serOut = 0
			}
		}
		u.serExt = lastIdx >= 0 && c.FirstUse[lastIdx] > 0 && h.issue[s] == lastReady
	}

	// Slack-Dynamic serialization detection. An instance suffered
	// serialization delay if either
	//   - external: its last-arriving operand is a serializing operand and
	//     (unless using the SIAL heuristic) the mini-graph issued as soon
	//     as that operand arrived (it was data-bound on it), or
	// Internal serialization is not detected (matching the paper's
	// hardware, which tracks operand arrivals only); in this workload
	// regime an internal-delay detector disables templates whose
	// amplification value exceeds their serialization cost.
	if m.mon != nil && m.mgc.Dynamic && lastIdx >= 0 {
		serInput := c.FirstUse[lastIdx] > 0
		dataBound := h.issue[s] == lastReady
		if serInput && (m.mgc.DynamicSIAL || dataBound) {
			u.serialized = true
			m.stats.MGSerializedEvents++
			if m.mgc.DynamicDelayOnly || m.mgc.DynamicSIAL {
				m.mon.harmful(m.cycle, u.mg.Template)
			}
		} else {
			m.mon.clean(u.mg.Template)
		}
	}
}

// consumerDelayed is called when a consumer of a serialized mini-graph's
// output issues exactly when that output arrived: the serialization delay
// propagated (full Slack-Dynamic model).
func (m *machine) noteConsumerOfHandle(consumerIssue int64, producer *uop) {
	if m.mon == nil || !m.mgc.Dynamic || !producer.serialized {
		return
	}
	if m.mgc.DynamicDelayOnly || m.mgc.DynamicSIAL {
		return // already counted at the producer
	}
	if consumerIssue == m.hot.readyOut[producer.slot] {
		m.mon.harmful(consumerIssue, producer.mg.Template)
	} else {
		// The consumer issued later for its own reasons: the serialization
		// delay was absorbed. Count the instance as clean so templates
		// whose delay is usually absorbed stay enabled.
		m.mon.clean(producer.mg.Template)
	}
}

// loadAccess models the load's cache access (with store forwarding) and
// returns the value-ready cycle.
func (m *machine) loadAccess(u *uop, memCycle int64) int64 {
	// Find the youngest older resolved store to the same word.
	h := &m.hot
	word := u.memAddr >> 2
	var match *uop
	for i := m.inflightStores.len() - 1; i >= 0; i-- {
		st := m.inflightStores.at(i)
		if st.seq >= u.seq {
			continue
		}
		if st.memAddr>>2 != word {
			continue
		}
		if h.issue[st.slot] >= 0 && h.resolve[st.slot] <= memCycle {
			match = st
		}
		break // only the youngest older same-word store matters
	}
	if match != nil {
		u.forwardedFrom = match
		if m.prof != nil && memCycle < match.fwdConsExec {
			match.fwdConsExec = memCycle
		}
		m.noteConsumerOfHandle(h.issue[u.slot], matchRoot(match))
		return memCycle + 1 // SQ forwarding latency
	}
	return m.hier.AccessD(memCycle, u.memAddr, false)
}

// matchRoot exists for symmetry: forwarding producers are uops already.
func matchRoot(s *uop) *uop { return s }

// loadIssueChecks schedules a future memory-ordering violation if an older
// same-address store has issued but resolves only after this load's access.
func (m *machine) loadIssueChecks(u *uop) {
	h := &m.hot
	word := u.memAddr >> 2
	for i := m.inflightStores.len() - 1; i >= 0; i-- {
		st := m.inflightStores.at(i)
		if st.seq >= u.seq || st.memAddr>>2 != word {
			continue
		}
		if h.issue[st.slot] >= 0 && h.resolve[st.slot] > u.memCycle {
			m.pendingViol = append(m.pendingViol, violation{atCycle: h.resolve[st.slot], load: u, store: st})
		}
		break
	}
}

// storeIssueChecks detects younger loads that already executed past this
// store (they read stale data): a violation fires when the store resolves.
func (m *machine) storeIssueChecks(u *uop) {
	h := &m.hot
	res := h.resolve[u.slot]
	word := u.memAddr >> 2
	for i := 0; i < m.inflightLoads.len(); i++ {
		l := m.inflightLoads.at(i)
		if l.seq <= u.seq || h.issue[l.slot] < 0 {
			continue
		}
		if l.memAddr>>2 != word || l.memCycle >= res {
			continue
		}
		// The load read memory (or an older store) before this store's
		// data existed. If it forwarded from a store younger than u, it is
		// still correct.
		if f := l.forwardedFrom; f != nil && f.seq > u.seq {
			continue
		}
		m.pendingViol = append(m.pendingViol, violation{atCycle: res, load: l, store: u})
	}
}

// --- memory-ordering violations ---

func (m *machine) checkViolations() {
	if len(m.pendingViol) == 0 {
		return
	}
	h := &m.hot
	var fire *violation
	kept := m.pendingViol[:0]
	for i := range m.pendingViol {
		v := &m.pendingViol[i]
		if h.squashed[v.load.slot] || h.squashed[v.store.slot] {
			continue
		}
		if v.atCycle <= m.cycle {
			if fire == nil || v.load.seq < fire.load.seq {
				if fire != nil {
					kept = append(kept, *fire)
				}
				fire = v
				continue
			}
		}
		kept = append(kept, *v)
	}
	m.pendingViol = kept
	if fire == nil {
		return
	}
	m.stats.MemOrderFlushes++
	if m.watch != nil && m.watch.Trace != nil {
		m.watch.Trace.Event(m.cycle, obs.EvFlush, -1, fire.load.seq)
	}
	m.ss.Violation(fire.load.memPC, fire.store.memPC)
	m.flushFrom(fire.load)
}

// flushFrom squashes the violating load and everything younger, restoring
// rename state, and redirects fetch to refetch from the load.
func (m *machine) flushFrom(v *uop) {
	h := &m.hot
	// Squash fetchQ and pending items entirely (all younger than v).
	m.squashScratch = m.squashScratch[:0]
	for i := 0; i < m.fetchQ.len(); i++ {
		u := m.fetchQ.at(i)
		h.squashed[u.slot] = true
		m.squashScratch = append(m.squashScratch, u)
	}
	m.fetchQ.clear()
	m.fetchPending.clear()

	// Squash window uops young -> old.
	cut := m.window.len()
	for i := m.window.len() - 1; i >= 0; i-- {
		u := m.window.at(i)
		if u.seq < v.seq {
			break
		}
		cut = i
		h.squashed[u.slot] = true
		m.squashScratch = append(m.squashScratch, u)
		if m.sched != SchedScan && h.issue[u.slot] < 0 {
			// Unissued: leave no event-scheduler references behind. Uops
			// waiting on a producer are scrubbed from its wakeup list;
			// ready-queue entries are purged wholesale below.
			m.iqCount--
			m.unregisterWaiter(u)
		}
		if u.writesReg {
			if m.lastWriter[u.dstReg] == u {
				m.lastWriter[u.dstReg] = u.prevWriter
			}
			m.freeRegs++
		}
		if u.isLoad {
			m.lqUsed--
			removeInflight(&m.inflightLoads, u)
		}
		if u.isStore {
			m.sqUsed--
			removeInflight(&m.inflightStores, u)
			m.ss.CompleteStore(u.memPC, u.seq)
		}
	}
	m.window.truncBack(cut)

	// Purge squashed uops from the IQ and violation list.
	if m.sched == SchedScan {
		kept := m.iq[:0]
		for _, u := range m.iq {
			if !h.squashed[u.slot] {
				kept = append(kept, u)
			}
		}
		m.iq = kept
	} else {
		m.purgeReadyQ()
	}
	keptV := m.pendingViol[:0]
	for _, pv := range m.pendingViol {
		if !h.squashed[pv.load.slot] && !h.squashed[pv.store.slot] {
			keptV = append(keptV, pv)
		}
	}
	m.pendingViol = keptV
	if m.pendingBranch != nil && h.squashed[m.pendingBranch.slot] {
		m.pendingBranch = nil
	}
	m.inBlock = false

	// Redirect fetch: refetch from the load's first trace record.
	m.fetchIdx = v.traceIdx
	if m.fetchStall < m.cycle+1 {
		m.fetchStall = m.cycle + 1
	}

	if m.emitUops {
		for _, u := range m.squashScratch {
			m.observeUop(u, m.cycle, true)
		}
	}

	// Squashed uops are dead immediately: they were the youngest suffix, so
	// no surviving uop can hold a pointer to one (srcProd, waitStore and
	// forwardedFrom all point at strictly older uops), and every structure
	// that indexed them (IQ, violations, rename table, pendingBranch) was
	// purged above. Profile records never name a squashed uop: they are
	// written at commit.
	if m.recycle {
		m.freeUops = append(m.freeUops, m.squashScratch...)
		m.squashScratch = m.squashScratch[:0]
	}
}

// --- rename ---

func (m *machine) rename() {
	for n := 0; n < m.cfg.FetchWidth && m.fetchQ.len() > 0; n++ {
		u := m.fetchQ.at(0)
		if u.renameReady > m.cycle {
			return
		}
		// Structural resources (the check order is shared with the event
		// scheduler's bulk stall accounting; see renameStallCounter).
		if ctr := m.renameStallCounter(u); ctr != nil {
			*ctr++
			return
		}
		m.fetchQ.popFront()
		u.renameCycle = m.cycle
		h := &m.hot
		s := u.slot
		// First cycle issue sees a renamed uop (replay back-off raises it).
		h.earliest[s] = m.cycle + 1

		// Dataflow linking.
		for i := 0; i < u.nSrc; i++ {
			if p := m.lastWriter[u.srcReg[i]]; p != nil {
				h.srcs[s][i] = p.slot
			}
		}
		if u.writesReg {
			u.prevWriter = m.lastWriter[u.dstReg]
			m.lastWriter[u.dstReg] = u
			m.freeRegs--
		}
		if u.isLoad {
			m.lqUsed++
			m.inflightLoads.pushBack(u)
			if tag := m.ss.RenameLoad(u.memPC); tag >= 0 {
				if st := m.findInflightStore(tag); st != nil {
					h.waitSlot[s] = st.slot
				}
			}
		}
		if u.isStore {
			m.sqUsed++
			m.inflightStores.pushBack(u)
			if prev := m.ss.RenameStore(u.memPC, u.seq); prev >= 0 {
				if st := m.findInflightStore(prev); st != nil {
					h.waitSlot[s] = st.slot
				}
			}
		}

		// Basic-block head tracking for slack profiling: a uop's profile
		// times are relative to the issue of the last head renamed before
		// it, which is also the last head committed before it.
		if m.prof != nil && u.kind != kindOverheadJump {
			if u.blockHead || !m.inBlock {
				u.bbHead = true
				m.inBlock = true
			}
		}

		m.window.pushBack(u)
		if m.sched == SchedScan {
			m.iq = append(m.iq, u)
		} else {
			m.admitEvent(u)
		}
	}
}

// --- fetch ---

func (m *machine) fetch() {
	if m.pendingBranch != nil || m.cycle < m.fetchStall {
		return
	}
	if m.fetchQ.len() >= m.cfg.FetchWidth*8 {
		return
	}
	var curLine uint32 = math.MaxUint32
	var it fetchItem
	for n := 0; n < m.cfg.FetchWidth; n++ {
		if m.fetchPending.len() == 0 && !m.prepareNext(&it) {
			return
		}
		// Prepared items wait in the pending ring only when prepareNext
		// queued an outlined expansion or an I-cache miss returned one.
		queued := m.fetchPending.len() > 0
		if queued {
			it = m.fetchPending.at(0)
		}
		// Instruction cache access, one per line per cycle.
		line := it.addr >> 5
		if line != curLine {
			done := m.hier.AccessI(m.cycle, it.addr)
			if done > m.cycle+int64(m.cfg.Hier.L1I.Latency) {
				// Miss: stall fetch until the line arrives.
				m.fetchStall = done
				if !queued {
					m.fetchPending.pushFront(it)
				}
				return
			}
			curLine = line
		}
		if queued {
			m.fetchPending.popFront()
		}
		u := m.makeUop(&it)
		m.fetchQ.pushBack(u)
		if u.mispred {
			m.pendingBranch = u
			return
		}
		if it.endsGroup {
			return
		}
	}
}

// prepareNext turns the next trace record(s) into fetch work: the common
// singleton or handle straight into *it, field by field, or a disabled
// mini-graph's expansion into the pending ring (leaving *it alone).
// Returns false when the trace is exhausted. Only called with an empty
// pending ring.
func (m *machine) prepareNext(it *fetchItem) bool {
	if m.fetchIdx >= len(m.tr) {
		return false
	}
	rec := &m.tr[m.fetchIdx]
	static := int(rec.Index)
	st := &m.statics[static]
	if h := st.handle; h != nil && m.fetchIdx+h.nRecs <= len(m.tr) {
		if m.mon != nil && m.mon.isDisabled(h.mg.Template) {
			if m.mgc.IdealOutlining {
				m.prepareInlineSingletons(h.mg)
			} else {
				m.prepareOutlined(h.mg)
			}
			return true
		}
		it.st = h
		it.static = static
		it.traceIdx = m.fetchIdx
		it.addr = h.addr
		it.endsGroup = h.hasBranch && m.tr[m.fetchIdx+h.ctrlOff].Taken
		m.fetchIdx += h.nRecs
		return true
	}
	it.st = st
	it.static = static
	it.traceIdx = m.fetchIdx
	it.addr = st.addr
	it.endsGroup = rec.Taken
	m.fetchIdx++
	return true
}

// prepareOutlined queues the outlined (disabled) execution of a mini-graph:
// jump to the outline region, the constituents as singletons, and a jump
// back (unless the final constituent is a taken branch).
func (m *machine) prepareOutlined(inst *minigraph.Instance) {
	start := inst.Start
	m.fetchPending.pushBack(fetchItem{
		st:        &jumpStatic,
		static:    start,
		traceIdx:  m.fetchIdx,
		addr:      m.layout.InlineAddr(start),
		endsGroup: true, // the outlining jump is always taken
	})
	lastTaken := false
	for k := 0; k < inst.N; k++ {
		rec := m.tr[m.fetchIdx+k]
		ends := rec.Taken
		if k == inst.N-1 {
			lastTaken = rec.Taken
		}
		m.fetchPending.pushBack(fetchItem{
			st:        &m.statics[inst.Start+k],
			static:    inst.Start + k,
			traceIdx:  m.fetchIdx + k,
			addr:      m.layout.OutlineAddr(inst.Start + k),
			endsGroup: ends,
		})
	}
	if !lastTaken {
		m.fetchPending.pushBack(fetchItem{
			st:        &jumpStatic,
			static:    start,
			traceIdx:  m.fetchIdx + inst.N - 1,
			addr:      m.layout.JumpBackAddr(start),
			endsGroup: true,
		})
	}
	m.fetchIdx += inst.N
}

// prepareInlineSingletons queues ideal (penalty-free) disabled execution:
// the constituents as inline singletons.
func (m *machine) prepareInlineSingletons(inst *minigraph.Instance) {
	for k := 0; k < inst.N; k++ {
		rec := m.tr[m.fetchIdx+k]
		m.fetchPending.pushBack(fetchItem{
			st:        &m.statics[inst.Start+k],
			static:    inst.Start + k,
			traceIdx:  m.fetchIdx + k,
			addr:      m.layout.InlineAddr(inst.Start), // share the handle slot
			endsGroup: rec.Taken,
		})
	}
	m.fetchIdx += inst.N
}

// uopSlabSize is how many uops one arena allocation holds.
const uopSlabSize = 256

// newUop returns a fully zeroed uop, from the free list when recycling has
// returned one, else carving a fresh arena slab (which also extends the
// hotState arrays with the new slots). Total live uops are bounded by the
// window, fetch queue and retired queue, so steady state allocates nothing.
func (m *machine) newUop() *uop {
	if n := len(m.freeUops); n > 0 {
		u := m.freeUops[n-1]
		m.freeUops = m.freeUops[:n-1]
		slot := u.slot
		*u = uop{slot: slot} // full reset: recycled uops carry no history
		return u
	}
	base := len(m.hot.uops)
	m.hot.grow(uopSlabSize)
	slab := make([]uop, uopSlabSize)
	for i := range slab {
		slab[i].slot = int32(base + i)
		m.hot.uops[base+i] = &slab[i]
	}
	for i := 1; i < len(slab); i++ {
		m.freeUops = append(m.freeUops, &slab[i])
	}
	return &slab[0]
}

// makeUop instantiates the fetch item's template as a uop, adding the
// trace record's memory address and running branch prediction, and
// re-initializes the uop's hotState slot.
func (m *machine) makeUop(it *fetchItem) *uop {
	st := it.st
	u := m.newUop()
	u.uopStatic = st
	u.seq = m.seq
	u.traceIdx = it.traceIdx
	u.static = it.static
	u.fetchCycle = m.cycle
	u.renameReady = m.cycle + int64(m.cfg.FetchToRename)
	u.renameCycle = -1
	u.minConsIss = never
	u.fwdConsExec = never
	m.seq++

	// Re-arm only the hot fields a reused slot could expose stale: issue
	// gates every read of execDone/readyOut/resolve (all written at execute),
	// earliest is written at rename before any read, waitCnt is assigned by
	// admitEvent, specReady reads are gated on singleton-load producers, and
	// wakeHead/link are -1 by invariant whenever a slot is free (broadcast
	// drains wake chains; the wheel and purge reset links).
	h := &m.hot
	s := u.slot
	h.seq[s] = u.seq
	h.issue[s] = -1
	h.waitSlot[s] = -1
	h.srcs[s] = [3]int32{-1, -1, -1}
	h.squashed[s] = false
	h.committed[s] = false
	h.meta[s] = st.meta

	if st.isLoad || st.isStore {
		u.memAddr = m.tr[it.traceIdx+st.memOff].Addr
	}
	switch {
	case st.hasBranch:
		m.predictBranch(u, &m.tr[it.traceIdx+st.ctrlOff])
	case st.kind == kindOverheadJump:
		m.predictOverheadJump(it.addr)
	}
	return u
}

// predictBranch runs u's control transfer through the front-end predictors
// at fetch time: a BTB miss on a direct target costs a decode bubble, and a
// transfer the front end would have fetched past down the wrong path marks
// u mispredicted.
func (m *machine) predictBranch(u *uop, rec *emu.Rec) {
	switch trainBranch(m.bp, u.brKind, u.brPC, rec.Taken, int(rec.Next)) {
	case branchBubble:
		if m.fetchStall < m.cycle+2 {
			m.fetchStall = m.cycle + 2
		}
	case branchRASMiss:
		m.stats.RASMispredicts++
		u.mispred = true
	case branchMispredict:
		u.mispred = true
	}
}

// predictOverheadJump models the outlining jump at pc: direct, always taken.
func (m *machine) predictOverheadJump(pc uint32) {
	if got, ok := m.bp.PredictTarget(pc); !ok || got == 0 {
		if m.fetchStall < m.cycle+2 {
			m.fetchStall = m.cycle + 2
		}
	}
	m.bp.UpdateTarget(pc, pc+4)
}

// --- slack profiling ---

// maxTrackedConsumers caps per-value consumer edges recorded for the
// global-slack pass (capping can only overestimate global slack).
const maxTrackedConsumers = 16

// profRec is what a profiling run keeps of a committed uop once the uop
// itself may be recycled: the slack fields that can still change after
// commit, and the global-slack edges to its producers' records. Its
// timing fields fold into the accumulator at commit (recordProfile).
// Slacks are stored clamped to [0, slack.BigSlack], which is exact: every
// slack the profile reports is clamped there.
type profRec struct {
	static   int32
	prod     [3]int32 // record indices of the producers this uop's edges feed
	edge     [3]uint8 // per edge: this uop's issue − the producer's ready
	nEdge    uint8
	regSlack uint8 // local register slack, lowered by consumers issuing after commit
	gslack   uint8 // global slack, lowered by the drain-time reverse pass
	foldReg  bool  // a singleton register writer: its register slacks are profiled
}

// clampSlack clamps a cycle difference to a record's slack range.
func clampSlack(d int64) uint8 {
	if d <= 0 {
		return 0
	}
	if d >= slack.BigSlack {
		return slack.BigSlack
	}
	return uint8(d)
}

// noteConsumer records, at u's issue, its read of producer slot p through
// source i. The read lowers p's local register slack: on the uop until p
// commits, on p's record after (p stays live until then: a committed
// writer parks until its successor writer, renamed after u, commits). The
// first maxTrackedConsumers reads of p, squashed readers included, become
// global-slack edges, written into u's record when u commits.
func (m *machine) noteConsumer(u *uop, i int, p int32) {
	h := &m.hot
	pu := h.uops[p]
	if h.committed[p] {
		r := &m.profRecs[pu.rec]
		if sl := clampSlack(m.cycle - h.readyOut[p]); sl < r.regSlack {
			r.regSlack = sl
		}
	} else if m.cycle < pu.minConsIss {
		pu.minConsIss = m.cycle
	}
	if pu.nCons < maxTrackedConsumers {
		pu.nCons++
		u.tracked |= 1 << i
	}
}

// recordProfile appends committed uop u's record and folds the fields that
// are final at commit — times relative to the basic-block head's issue,
// execution latency, store slack (loads forward only from in-flight
// stores) and branch slack — into the accumulator; register slacks fold
// at drain. Only singletons are profiled (profiling runs are singleton
// runs, as in the paper); a handle's record only carries global slack.
func (m *machine) recordProfile(u *uop) {
	h := &m.hot
	s := u.slot
	if u.bbHead {
		m.headIssue = h.issue[s]
	}
	u.rec = int32(len(m.profRecs))
	r := profRec{static: int32(u.static), gslack: slack.BigSlack, foldReg: u.kind == kindSingleton && u.writesReg}
	if u.hasBranch && u.mispred {
		r.gslack = 0 // delaying a mispredicted branch delays everything
	}
	for i := 0; i < u.nSrc; i++ {
		if u.tracked&(1<<i) != 0 {
			p := h.srcs[s][i]
			r.prod[r.nEdge] = h.uops[p].rec
			r.edge[r.nEdge] = clampSlack(h.issue[s] - h.readyOut[p])
			r.nEdge++
		}
	}
	if u.writesReg {
		r.regSlack = slack.BigSlack
		if u.minConsIss != never {
			r.regSlack = clampSlack(u.minConsIss - h.readyOut[s])
		}
	}
	m.profRecs = append(m.profRecs, r)
	if u.kind != kindSingleton {
		return
	}

	base := float64(m.headIssue)
	in := m.p.Code[u.static]
	obs := slack.Observation{
		Issue:          float64(h.issue[s]) - base,
		Ready:          float64(h.readyOut[s]) - base,
		ExecLat:        float64(h.execDone[s] - h.issue[s] - int64(m.cfg.IssueToExec)),
		Src1Ready:      slack.NaN(),
		Src2Ready:      slack.NaN(),
		RegSlack:       slack.NaN(),
		StoreSlack:     slack.NaN(),
		BranchSlack:    slack.NaN(),
		GlobalRegSlack: slack.NaN(),
	}
	// Map the uop's dynamic sources back to the instruction's operand slots.
	slot := 0
	if in.Rs1 != isa.NoReg && in.Rs1 != isa.ZeroReg && in.Rs1.Valid() {
		obs.Src1Ready = float64(u.srcReadyC[slot]) - base
		slot++
	}
	if in.Rs2 != isa.NoReg && in.Rs2 != isa.ZeroReg && in.Rs2.Valid() {
		obs.Src2Ready = float64(u.srcReadyC[slot]) - base
	}
	if u.isStore {
		obs.StoreSlack = slack.BigSlack
		if u.fwdConsExec != never {
			obs.StoreSlack = float64(clampSlack(u.fwdConsExec - h.resolve[s]))
		}
	}
	if u.hasBranch {
		if u.mispred {
			obs.BranchSlack = 0
		} else {
			obs.BranchSlack = slack.BigSlack
		}
	}
	m.prof.Add(u.static, obs)
}

// drainProfile finishes a profiling run. A reverse pass over the records
// computes global slack — the delay a value tolerates without lengthening
// the whole execution, propagated through the dataflow graph: consumers
// are younger and commit later, so each record's global slack is final
// when the sweep reaches it, and it pushes edge + its slack to its
// producers. The register slacks then fold in commit order.
func (m *machine) drainProfile() {
	if m.prof == nil {
		return
	}
	recs := m.profRecs
	for i := len(recs) - 1; i >= 0; i-- {
		r := &recs[i]
		for k := uint8(0); k < r.nEdge; k++ {
			if v, p := r.edge[k]+r.gslack, &recs[r.prod[k]]; v < p.gslack {
				p.gslack = v
			}
		}
	}
	for i := range recs {
		if r := &recs[i]; r.foldReg {
			m.prof.AddRegSlack(int(r.static), float64(r.regSlack), float64(r.gslack))
		}
	}
	m.profRecs = recs[:0]
}

// --- observability hooks (see internal/obs) ---

var uopKindNames = [...]string{
	kindSingleton:    "singleton",
	kindHandle:       "handle",
	kindOverheadJump: "ovh-jump",
}

// observeUop builds the pipetrace record for u at commit (cycle = commit
// cycle) or squash (squashed = true, no commit cycle) and writes it to the
// observer's pipetrace. Only called when emitUops is set. The writer does
// not retain the record's Srcs slice, which aliases the machine's scratch
// array.
func (m *machine) observeUop(u *uop, cycle int64, squashed bool) {
	h := &m.hot
	s := u.slot
	r := obs.UopTrace{
		Seq:      u.seq,
		Static:   u.static,
		Kind:     uopKindNames[u.kind],
		Op:       u.op.String(),
		N:        u.nRecs,
		Fetch:    u.fetchCycle,
		Rename:   u.renameCycle,
		Issue:    h.issue[s],
		Done:     h.execDone[s],
		Ready:    h.readyOut[s],
		Commit:   cycle,
		Replays:  int(u.replays),
		Mispred:  u.mispred,
		Squashed: squashed,

		Dst:    -1,
		Tmpl:   -1,
		SerLat: u.serLat,
		SerOut: u.serOut,
		MemLat: u.memLat,
		SerExt: u.serExt,
	}
	if u.writesReg {
		r.Dst = int(u.dstReg)
	}
	if u.nSrc > 0 {
		r.Srcs = m.obsSrcs[:u.nSrc]
		for i := 0; i < u.nSrc; i++ {
			r.Srcs[i] = int(u.srcReg[i])
		}
	}
	if u.kind == kindHandle {
		r.Tmpl = u.mg.Template
	}
	switch {
	case u.isLoad:
		r.Mem = obs.MemLoad
	case u.isStore:
		r.Mem = obs.MemStore
	}
	if r.Mem != obs.MemNone && h.issue[s] >= 0 {
		r.Addr = u.memAddr
	}
	// Singleton loads: cycles beyond the L1-hit wakeup the consumers saw
	// (specReady is capped at readyOut, so this is never negative).
	if u.kind != kindHandle && u.isLoad && h.issue[s] >= 0 {
		r.MemLat = h.readyOut[s] - h.specReady[s]
	}
	if squashed {
		r.Commit = -1
	}
	if h.issue[s] < 0 {
		r.Done, r.Ready = -1, -1
	}
	m.watch.Trace.Uop(r)
}

// sampleInterval records a time-series sample when the current cycle is a
// sampling point. Called once per cycle when an observer is attached.
func (m *machine) sampleInterval() {
	iv := m.watch.Intervals
	if iv == nil || !iv.Due(m.cycle) {
		return
	}
	iv.Sample(m.snapshot())
}

// snapshot captures the cumulative counters and instantaneous occupancies
// the interval sampler differentiates.
func (m *machine) snapshot() obs.CycleSnapshot {
	disabled := 0
	if m.mon != nil {
		disabled = m.mon.disabledCount()
	}
	return obs.CycleSnapshot{
		Cycle:          m.cycle,
		Instrs:         m.stats.Instrs,
		Uops:           m.stats.Uops,
		EmbeddedInstrs: m.stats.EmbeddedInstrs,

		StallIQ:   m.stats.StallIQ,
		StallROB:  m.stats.StallROB,
		StallRegs: m.stats.StallRegs,
		StallLQ:   m.stats.StallLQ,
		StallSQ:   m.stats.StallSQ,

		Replays:    m.stats.Replays,
		Serialized: m.stats.MGSerializedEvents,
		Harmful:    m.stats.MGHarmfulEvents,
		Disables:   m.stats.MGDisables,
		Reenables:  m.stats.MGReenables,

		IQOcc:             m.iqLen(),
		ROBOcc:            m.window.len(),
		LQOcc:             m.lqUsed,
		SQOcc:             m.sqUsed,
		FreeRegs:          m.freeRegs,
		DisabledTemplates: disabled,
	}
}
