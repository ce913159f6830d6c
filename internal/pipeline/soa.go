package pipeline

// Structure-of-arrays hot state.
//
// The scheduler's inner loops (wakeup broadcast, ready-queue maintenance,
// issue candidate sorting, register read) touch a handful of per-uop fields
// every cycle. Keeping those fields inside the uop struct means every touch
// is a pointer chase into a ~300-byte struct scattered across recycled slab
// memory. hotState flattens them into per-field slices indexed by a uop's
// permanent slot — the same set-major flat-array idiom the caches, BTB and
// StoreSets tables use — so the hot loops walk small dense arrays instead.
//
// Slot safety rides on the uop-recycling invariant (see reclaim): a slot is
// reused only when its previous uop is provably unreferenced, so any slot
// index held by live scheduler state (ready tiers, wake chains, srcs)
// always refers to the uop it was recorded for. makeUop re-initializes all
// hot fields when a slot is reassigned.
type hotState struct {
	uops []*uop // slot -> uop (slot assignment is permanent per run)

	seq       []int64 // program order (mirror of uop.seq; immutable per slot)
	issue     []int64 // issue cycle; -1 until issued
	execDone  []int64 // all results produced; commit-eligible after this
	readyOut  []int64 // register output available on the bypass network
	specReady []int64 // loads: L1-hit-speculative ready time
	resolve   []int64 // branch redirect / store resolution cycle
	earliest  []int64 // no issue attempt before this cycle (rename+1, replays)

	waitCnt  []int32    // unissued producers gating ready-queue entry
	wakeHead []int32    // head of the wakeup chain (wakeNodes index), -1 empty
	link     []int32    // calendar-wheel chain link (slot -> slot), -1 ends
	waitSlot []int32    // StoreSets-imposed store to wait for, -1 none
	srcs     [][3]int32 // producer slots, -1 when none

	meta      []uint8 // packed class/kind/mem/nSrc byte (see packMeta)
	squashed  []bool
	committed []bool
}

// meta byte layout: bits 0-2 the isa.Class, bit 3 mini-graph handle, bits
// 4-5 load/store, bits 6-7 the source count. Everything the issue budget
// and register-read loops need without touching the uop struct.
const (
	metaClassMask uint8 = 0x07
	metaHandle    uint8 = 1 << 3
	metaLoad      uint8 = 1 << 4
	metaStore     uint8 = 1 << 5
	metaNSrcShift       = 6
)

func packMeta(t *uopStatic) uint8 {
	b := uint8(t.class) & metaClassMask
	if t.kind == kindHandle {
		b |= metaHandle
	}
	if t.isLoad {
		b |= metaLoad
	}
	if t.isStore {
		b |= metaStore
	}
	return b | uint8(t.nSrc)<<metaNSrcShift
}

// newHotState sizes every array for capHint slots up front; steady-state
// runs never outgrow it (live uops are bounded by the window, fetch queue
// and retired queue), so the hot loop performs no slice growth.
func newHotState(capHint int) hotState {
	return hotState{
		uops:      make([]*uop, 0, capHint),
		seq:       make([]int64, 0, capHint),
		issue:     make([]int64, 0, capHint),
		execDone:  make([]int64, 0, capHint),
		readyOut:  make([]int64, 0, capHint),
		specReady: make([]int64, 0, capHint),
		resolve:   make([]int64, 0, capHint),
		earliest:  make([]int64, 0, capHint),
		waitCnt:   make([]int32, 0, capHint),
		wakeHead:  make([]int32, 0, capHint),
		link:      make([]int32, 0, capHint),
		waitSlot:  make([]int32, 0, capHint),
		srcs:      make([][3]int32, 0, capHint),
		meta:      make([]uint8, 0, capHint),
		squashed:  make([]bool, 0, capHint),
		committed: make([]bool, 0, capHint),
	}
}

// grow extends every array by n zeroed slots (chain links start empty).
// Only runs with recycling off grow past the initial capacity.
func (h *hotState) grow(n int) {
	base := len(h.uops)
	h.uops = append(h.uops, make([]*uop, n)...)
	h.seq = append(h.seq, make([]int64, n)...)
	h.issue = append(h.issue, make([]int64, n)...)
	h.execDone = append(h.execDone, make([]int64, n)...)
	h.readyOut = append(h.readyOut, make([]int64, n)...)
	h.specReady = append(h.specReady, make([]int64, n)...)
	h.resolve = append(h.resolve, make([]int64, n)...)
	h.earliest = append(h.earliest, make([]int64, n)...)
	h.waitCnt = append(h.waitCnt, make([]int32, n)...)
	h.wakeHead = append(h.wakeHead, make([]int32, n)...)
	h.link = append(h.link, make([]int32, n)...)
	h.waitSlot = append(h.waitSlot, make([]int32, n)...)
	h.srcs = append(h.srcs, make([][3]int32, n)...)
	h.meta = append(h.meta, make([]uint8, n)...)
	h.squashed = append(h.squashed, make([]bool, n)...)
	h.committed = append(h.committed, make([]bool, n)...)
	for i := base; i < len(h.uops); i++ {
		h.wakeHead[i] = -1
		h.link[i] = -1
		h.waitSlot[i] = -1
		h.srcs[i] = [3]int32{-1, -1, -1}
	}
}

// wakeNode is one entry in a producer's wakeup chain: consumer slot c waits
// for the producer to issue. Nodes live in the machine's wakeNodes pool and
// recycle through a free list, so steady state allocates none.
type wakeNode struct {
	c    int32
	next int32 // next node index, -1 ends the chain
}
