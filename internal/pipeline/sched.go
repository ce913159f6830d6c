package pipeline

import (
	"math/bits"

	"repro/internal/isa"
)

// SchedKind selects the issue-scheduler implementation. Both schedulers
// simulate the same machine and produce byte-identical statistics and
// pipetraces; they differ only in how the simulator finds work.
//
// SchedEvent (the default) is event-driven: issue() pops candidates from a
// ready-queue that producers populate on wakeup broadcast, and the main
// loop jumps over cycles in which no pipeline stage can make progress.
// SchedScan is the original per-cycle implementation — tick every cycle,
// rescan the whole issue queue — kept as the reference the differential
// tests (TestSchedulerDifferential*) compare the event scheduler against.
type SchedKind uint8

const (
	// SchedEvent is the event-driven scheduler: producer-wakeup issue
	// queue plus idle-cycle skipping.
	SchedEvent SchedKind = iota
	// SchedScan is the reference per-cycle scan scheduler.
	SchedScan
)

func (k SchedKind) String() string {
	if k == SchedScan {
		return "scan"
	}
	return "event"
}

// defaultSched is the scheduler Run, RunObserved and the sampling paths
// use. Only TestSampledDifferential changes it, so the sampled estimators
// can run under the scan reference; it is not safe to change while
// simulations run.
var defaultSched = SchedEvent

// --- issue bandwidth bookkeeping (shared by both schedulers) ---

// issueBudget tracks the per-cycle issue bandwidth and port budget.
type issueBudget struct {
	width, simple, complx, loads, stores, mg, mgMem int
}

// issueBudgetOf is a full cycle's budget on cfg. A machine computes it once
// (its Config never changes) and both schedulers start every issuing cycle
// from a copy.
func issueBudgetOf(cfg Config) issueBudget {
	return issueBudget{
		width:  cfg.IssueWidth,
		simple: cfg.SimplePorts,
		complx: cfg.ComplexPorts,
		loads:  cfg.LoadPorts,
		stores: cfg.StorePorts,
		mg:     cfg.MaxMGIssue,
		mgMem:  cfg.MaxMemMGIssue,
	}
}

// admits reports whether a port is available this cycle for a uop with the
// given packed meta byte (see packMeta).
func (b *issueBudget) admits(meta uint8) bool {
	if meta&metaHandle != 0 {
		return b.mg > 0 && !(meta&(metaLoad|metaStore) != 0 && b.mgMem == 0)
	}
	switch isa.Class(meta & metaClassMask) {
	case isa.ClassSimple, isa.ClassBranch, isa.ClassJump:
		return b.simple > 0
	case isa.ClassComplex:
		return b.complx > 0
	case isa.ClassLoad:
		return b.loads > 0
	case isa.ClassStore:
		return b.stores > 0
	}
	return true
}

// consume charges the issue against the budget.
func (b *issueBudget) consume(meta uint8) {
	b.width--
	if meta&metaHandle != 0 {
		b.mg--
		if meta&(metaLoad|metaStore) != 0 {
			b.mgMem--
		}
		return
	}
	switch isa.Class(meta & metaClassMask) {
	case isa.ClassSimple, isa.ClassBranch, isa.ClassJump:
		b.simple--
	case isa.ClassComplex:
		b.complx--
	case isa.ClassLoad:
		b.loads--
	case isa.ClassStore:
		b.stores--
	}
}

// --- event scheduler: ready queue ---

// readyEnt is one overflow-heap entry: the uop in slot may attempt issue at
// cycle wake. The heap orders by (wake, seq) so same-cycle candidates pop
// in program order, matching the scan scheduler's issue-queue order.
type readyEnt struct {
	wake int64
	seq  int64
	slot int32
}

func entBefore(a, b readyEnt) bool {
	return a.wake < b.wake || (a.wake == b.wake && a.seq < b.seq)
}

// wheelSize is the calendar-wheel horizon in cycles. Wakes beyond it (rare
// bus-contention pile-ups) fall back to the overflow heap. Power of two.
const wheelSize = 512

// pushReady schedules slot s's next issue attempt at cycle wake, choosing
// the cheapest structure that can represent it: the flat readyNext list
// when wake is exactly next cycle (port/bandwidth rejects, operands already
// ready at rename — the dominant case), a calendar-wheel slot for wakes
// within the wheel horizon (load misses, latency chains), and the overflow
// heap beyond that. Wheel slots are intrusive chains through hot.link, so
// scheduling a wake never allocates.
func (m *machine) pushReady(s int32, wake int64) {
	d := wake - m.cycle
	if d <= 1 {
		// Exotic configurations can broadcast a same-cycle wake (d <= 0);
		// those must stay visible to the current issue drain, which re-reads
		// the heap — readyNext is only read next cycle.
		if d == 1 {
			m.readyNext = append(m.readyNext, s)
			return
		}
		m.pushReadyHeap(s, wake)
		return
	}
	if d < wheelSize {
		w := int(wake) & (wheelSize - 1)
		if m.wheelHead[w] < 0 {
			m.wheelBits[w>>6] |= 1 << uint(w&63)
		}
		m.hot.link[s] = m.wheelHead[w]
		m.wheelHead[w] = s
		m.wheelCnt++
		return
	}
	m.pushReadyHeap(s, wake)
}

func (m *machine) pushReadyHeap(s int32, wake int64) {
	q := append(m.readyQ, readyEnt{wake: wake, seq: m.hot.seq[s], slot: s})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entBefore(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	m.readyQ = q
}

func (m *machine) popReady() int32 {
	q := m.readyQ
	s := q[0].slot
	n := len(q) - 1
	q[0] = q[n]
	m.readyQ = q[:n]
	siftDownReady(m.readyQ, 0)
	return s
}

func siftDownReady(q []readyEnt, i int) {
	n := len(q)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && entBefore(q[l], q[smallest]) {
			smallest = l
		}
		if r < n && entBefore(q[r], q[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
}

// purgeReadyQ drops squashed uops after a flush — they are about to be
// recycled, so stale entries must go — and restores heap order.
func (m *machine) purgeReadyQ() {
	h := &m.hot
	q := m.readyQ[:0]
	for _, e := range m.readyQ {
		if !h.squashed[e.slot] {
			q = append(q, e)
		}
	}
	m.readyQ = q
	for i := len(q)/2 - 1; i >= 0; i-- {
		siftDownReady(q, i)
	}
	nx := m.readyNext[:0]
	for _, s := range m.readyNext {
		if !h.squashed[s] {
			nx = append(nx, s)
		}
	}
	m.readyNext = nx
	if m.wheelCnt == 0 {
		return
	}
	for w, word := range m.wheelBits {
		for word != 0 {
			ws := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			// Relink the chain keeping only live uops.
			var keptHead, keptTail int32 = -1, -1
			for s := m.wheelHead[ws]; s >= 0; {
				next := h.link[s]
				if h.squashed[s] {
					h.link[s] = -1
					m.wheelCnt--
				} else {
					if keptTail < 0 {
						keptHead = s
					} else {
						h.link[keptTail] = s
					}
					keptTail = s
				}
				s = next
			}
			if keptTail >= 0 {
				h.link[keptTail] = -1
			}
			m.wheelHead[ws] = keptHead
			if keptHead < 0 {
				m.wheelBits[w] &^= 1 << uint(ws&63)
			}
		}
	}
}

// nextWheelWake returns the earliest wake cycle pending in the calendar
// wheel. Caller guarantees wheelCnt > 0; remaining entries wake within
// (cycle, cycle+wheelSize), so a circular bitmap scan starting at the slot
// for cycle+1 finds the earliest in at most wheelSize/64+1 word reads.
func (m *machine) nextWheelWake() int64 {
	start := int(m.cycle+1) & (wheelSize - 1)
	w := start >> 6
	word := m.wheelBits[w] & (^uint64(0) << uint(start&63))
	for i := 0; i <= len(m.wheelBits); i++ {
		if word != 0 {
			s := w<<6 + bits.TrailingZeros64(word)
			return m.cycle + 1 + int64((s-start)&(wheelSize-1))
		}
		w = (w + 1) & (len(m.wheelBits) - 1)
		word = m.wheelBits[w]
	}
	return never // unreachable while wheelCnt > 0
}

// --- event scheduler: producer wakeup ---

// addWaiter chains consumer slot c onto producer slot p's wakeup list,
// taking a node from the free list (steady state) or growing the pool.
func (m *machine) addWaiter(p, c int32) {
	n := m.wakeFree
	if n < 0 {
		m.wakeNodes = append(m.wakeNodes, wakeNode{})
		n = int32(len(m.wakeNodes) - 1)
	} else {
		m.wakeFree = m.wakeNodes[n].next
	}
	m.wakeNodes[n] = wakeNode{c: c, next: m.hot.wakeHead[p]}
	m.hot.wakeHead[p] = n
}

// admitEvent registers a freshly renamed uop with the event scheduler:
// either it waits on unissued producers (which will wake it when they
// broadcast at issue), or it goes straight onto the ready queue.
func (m *machine) admitEvent(u *uop) {
	m.iqCount++
	h := &m.hot
	s := u.slot
	cnt := int32(0)
	n := int(h.meta[s] >> metaNSrcShift)
	for i := 0; i < n; i++ {
		if p := h.srcs[s][i]; p >= 0 && h.issue[p] < 0 {
			m.addWaiter(p, s)
			cnt++
		}
	}
	if ws := h.waitSlot[s]; ws >= 0 && h.issue[ws] < 0 {
		m.addWaiter(ws, s)
		cnt++
	}
	h.waitCnt[s] = cnt
	if cnt == 0 {
		m.enqueueReady(s)
	}
}

// enqueueReady computes the first cycle at which the scan scheduler's
// ready() would admit slot s — every producer has issued by now, so all
// wakeup times are known — and pushes it onto the ready queue.
func (m *machine) enqueueReady(s int32) {
	h := &m.hot
	wake := h.earliest[s] // rename+1 (set at rename; no replay happened yet)
	src := h.srcs[s]
	n := int(h.meta[s] >> metaNSrcShift)
	for i := 0; i < n; i++ {
		p := src[i]
		if p < 0 {
			continue
		}
		w := h.readyOut[p]
		// Same singleton-load gate as the scan scheduler's ready(): handles
		// and non-loads never write specReady.
		if h.meta[p]&(metaLoad|metaHandle) == metaLoad {
			if sp := h.specReady[p]; sp > 0 && sp < w {
				w = sp // speculative load-hit wakeup
			}
		}
		if ic := h.issue[p]; ic > w {
			w = ic // consumer scans after producer the same cycle
		}
		if w > wake {
			wake = w
		}
	}
	if ws := h.waitSlot[s]; ws >= 0 && !h.committed[ws] && !h.squashed[ws] {
		w := h.resolve[ws]
		if ic := h.issue[ws]; ic > w {
			w = ic
		}
		if w > wake {
			wake = w
		}
	}
	m.pushReady(s, wake)
}

// broadcast wakes the consumers waiting on slot s, which has just issued
// (its readyOut/specReady/resolve are now known). Consumers whose last
// outstanding producer this was move onto the ready queue.
func (m *machine) broadcast(s int32) {
	h := &m.hot
	n := h.wakeHead[s]
	if n < 0 {
		return
	}
	h.wakeHead[s] = -1
	for n >= 0 {
		nd := &m.wakeNodes[n]
		c, next := nd.c, nd.next
		nd.next = m.wakeFree
		m.wakeFree = n
		n = next
		h.waitCnt[c]--
		if h.waitCnt[c] == 0 && !h.squashed[c] {
			m.enqueueReady(c)
		}
	}
}

// unregisterWaiter removes a squashed, never-issued uop from its
// producers' wakeup lists so their broadcasts never touch a recycled slot.
// Uops already on the ready queue (waitCnt 0) are purged wholesale by
// purgeReadyQ instead.
func (m *machine) unregisterWaiter(u *uop) {
	h := &m.hot
	s := u.slot
	if h.waitCnt[s] == 0 {
		return
	}
	n := int(h.meta[s] >> metaNSrcShift)
	for i := 0; i < n; i++ {
		if p := h.srcs[s][i]; p >= 0 && h.issue[p] < 0 {
			m.removeWaiter(p, s)
		}
	}
	if ws := h.waitSlot[s]; ws >= 0 && h.issue[ws] < 0 {
		m.removeWaiter(ws, s)
	}
	h.waitCnt[s] = 0
}

// removeWaiter unchains every node for consumer c from producer p's wakeup
// list (a consumer reading the same register twice registers twice).
func (m *machine) removeWaiter(p, c int32) {
	h := &m.hot
	prev := int32(-1)
	for n := h.wakeHead[p]; n >= 0; {
		nd := &m.wakeNodes[n]
		next := nd.next
		if nd.c == c {
			if prev < 0 {
				h.wakeHead[p] = next
			} else {
				m.wakeNodes[prev].next = next
			}
			nd.next = m.wakeFree
			m.wakeFree = n
		} else {
			prev = n
		}
		n = next
	}
}

// --- event scheduler: issue ---

// issueEvent is the event-driven issue stage: pop every candidate whose
// wake cycle has arrived, attempt them in program order under the same
// bandwidth/port/register-read rules as the scan scheduler, and re-queue
// rejects at their next feasible cycle (next cycle for structural
// rejects, the true operand-ready cycle for register-read replays).
func (m *machine) issueEvent() {
	h := &m.hot
	slot := int(m.cycle) & (wheelSize - 1)
	if len(m.readyNext) == 0 && m.wheelHead[slot] < 0 &&
		(len(m.readyQ) == 0 || m.readyQ[0].wake > m.cycle) {
		return
	}
	bud := m.budget
	// Swap readyNext into the candidate scratch: rejects re-append to the
	// (now empty) other buffer, so no copying either way.
	cand := m.readyNext
	m.readyNext = m.issueScratch[:0]
	// The outer loop re-drains the heap in case a broadcast enqueued a
	// consumer already eligible this cycle (impossible with a non-zero
	// issue-to-execute depth, but kept for exotic configurations; such
	// wakes never land on readyNext or the wheel).
	for {
		// Every entry in the current wheel slot is due exactly now: pushes
		// place wakes at most wheelSize-1 cycles out, and the idle-skip
		// logic never jumps past a pending wake.
		if s := m.wheelHead[slot]; s >= 0 {
			for s >= 0 {
				cand = append(cand, s)
				next := h.link[s]
				h.link[s] = -1
				s = next
				m.wheelCnt--
			}
			m.wheelHead[slot] = -1
			m.wheelBits[slot>>6] &^= 1 << uint(slot&63)
		}
		for len(m.readyQ) > 0 && m.readyQ[0].wake <= m.cycle {
			cand = append(cand, m.popReady())
		}
		if len(cand) == 0 {
			break
		}
		sortSlotsBySeq(cand, h.seq)
		for i, s := range cand {
			if h.squashed[s] {
				continue
			}
			if bud.width == 0 {
				// Out of issue bandwidth: everything still eligible
				// retries next cycle, like the scan's early exit.
				m.readyNext = append(m.readyNext, cand[i:]...)
				break
			}
			meta := h.meta[s]
			if !bud.admits(meta) {
				m.readyNext = append(m.readyNext, s)
				continue
			}
			bud.consume(meta)
			// Register read: a speculatively-woken consumer of a missed
			// load wastes this attempt and replays at the true ready time.
			if latest := m.latestSrcReady(s); latest > m.cycle {
				m.stats.Replays++
				h.uops[s].replays++
				h.earliest[s] = latest
				m.pushReady(s, latest)
				continue
			}
			m.execute(h.uops[s])
			m.iqCount--
			m.broadcast(s)
		}
		cand = cand[:0]
	}
	m.issueScratch = cand[:0]
}

// sortSlotsBySeq is an insertion sort by seq: candidate batches are small
// (bounded by the issue queue) and usually nearly sorted, arriving in
// (wake, seq) heap order.
func sortSlotsBySeq(ss []int32, seq []int64) {
	for i := 1; i < len(ss); i++ {
		s := ss[i]
		k := seq[s]
		j := i - 1
		for j >= 0 && seq[ss[j]] > k {
			ss[j+1] = ss[j]
			j--
		}
		ss[j+1] = s
	}
}

// --- event scheduler: idle-cycle skipping ---

// renameStallCounter returns the stall counter rename would charge this
// cycle for head-of-queue uop u, or nil if u can rename now. The check
// order must match rename().
func (m *machine) renameStallCounter(u *uop) *int64 {
	if m.iqLen() >= m.cfg.IQEntries {
		return &m.stats.StallIQ
	}
	if m.window.len() >= m.cfg.ROBEntries {
		return &m.stats.StallROB
	}
	if u.writesReg && m.freeRegs == 0 {
		return &m.stats.StallRegs
	}
	if u.isLoad && m.lqUsed >= m.cfg.LQEntries {
		return &m.stats.StallLQ
	}
	if u.isStore && m.sqUsed >= m.cfg.SQEntries {
		return &m.stats.StallSQ
	}
	return nil
}

// nextEventCycle returns the next cycle at which any pipeline stage might
// make progress or any per-cycle side channel (Slack-Dynamic decay,
// interval sampling) must observe the machine. Cycles before it are
// provably inert except for rename stall counting, which advanceCycle
// accounts in bulk. Returns never if no event is pending (deadlock).
func (m *machine) nextEventCycle() int64 {
	h := &m.hot
	c := m.cycle
	// Every term below is clamped to at least c+1, so any source already due
	// next cycle decides the answer outright. readyNext alone short-circuits
	// most busy cycles without touching the heap, wheel or queue heads.
	if len(m.readyNext) > 0 {
		return c + 1 // readyNext entries wake next cycle by construction
	}
	next := never
	if len(m.readyQ) > 0 {
		if w := m.readyQ[0].wake; w <= c+1 {
			return c + 1
		} else {
			next = w
		}
	}
	if m.window.len() > 0 {
		if hd := m.window.at(0); h.issue[hd.slot] >= 0 {
			if d := h.execDone[hd.slot]; d <= c+1 {
				return c + 1
			} else if d < next {
				next = d
			}
		}
	}
	if m.wheelCnt > 0 && next > c+1 {
		next = min(next, m.nextWheelWake())
	}
	for i := range m.pendingViol {
		v := &m.pendingViol[i]
		if h.squashed[v.load.slot] || h.squashed[v.store.slot] {
			continue
		}
		next = min(next, max(c+1, v.atCycle))
	}
	if b := m.pendingBranch; b != nil && h.issue[b.slot] >= 0 {
		next = min(next, max(c+1, h.resolve[b.slot]))
	}
	if m.fetchQ.len() > 0 {
		hd := m.fetchQ.at(0)
		if m.renameStallCounter(hd) == nil {
			// Head can rename once its rename latency elapses. (When it is
			// structurally blocked, only another event — a commit, issue or
			// flush — can unblock it, so no event is needed here.)
			next = min(next, max(c+1, hd.renameReady))
		}
	}
	if m.pendingBranch == nil && m.fetchQ.len() < m.cfg.FetchWidth*8 &&
		(m.fetchPending.len() > 0 || m.fetchIdx < len(m.tr)) {
		next = min(next, max(c+1, m.fetchStall))
	}
	if m.mon != nil && m.mgc.Dynamic {
		next = min(next, max(c+1, m.mon.decayAt))
	}
	if m.watch != nil && m.watch.Intervals != nil {
		every := m.watch.Intervals.Every()
		next = min(next, (c/every+1)*every)
	}
	return next
}

// advanceCycle jumps the machine to the next interesting cycle, charging
// the rename stall counters for the skipped cycles exactly as the scan
// scheduler would have, one per cycle, against the head-of-queue block
// reason (which cannot change across inert cycles).
func (m *machine) advanceCycle(maxCycles int64) {
	if m.done() {
		m.cycle++
		return
	}
	next := m.nextEventCycle()
	if next == never {
		// No pending event and not done: the machine is wedged. Jump past
		// the cycle bound so the run surfaces the same deadlock error the
		// scan scheduler's cycle-by-cycle crawl would eventually hit.
		m.cycle = maxCycles + 1
		return
	}
	if next > m.cycle+1 && m.fetchQ.len() > 0 {
		h := m.fetchQ.at(0)
		from := max(m.cycle+1, h.renameReady)
		if from < next {
			if ctr := m.renameStallCounter(h); ctr != nil {
				*ctr += next - from
			}
		}
	}
	m.cycle = next
}
