// Package cache implements the memory system from Table 1 of the paper:
// 32KB 2-way 3-cycle L1 instruction and data caches, 64-entry 4-way I and D
// TLBs, a 1MB 4-way 12-cycle unified L2, a 200-cycle main memory, and a 16B
// memory bus clocked at 1/4 of the core frequency.
//
// The model is latency-oriented: an access at cycle `now` returns the cycle
// at which the data is available. Main-memory transfers serialize on the
// bus. Caches are write-back/write-allocate; dirty evictions consume a bus
// slot but do not delay the triggering access (an eviction buffer).
package cache

// Config sizes one cache level.
type Config struct {
	Size     int // total bytes
	LineSize int // bytes per line
	Assoc    int // ways
	Latency  int // access latency in cycles (hit time)
}

type line struct {
	valid bool
	dirty bool
	tag   uint32
	lru   uint64
}

// Cache is one set-associative, LRU, write-back cache level. The line
// array is flat and set-major (set s occupies lines[s*assoc:(s+1)*assoc]):
// set indexing is on the simulator's per-access hot path, and the flat
// layout plus mask/shift indexing (all practical configurations have a
// power-of-two set count) avoids a pointer chase and two integer divisions
// per access.
type Cache struct {
	cfg      Config
	lines    []line
	nsets    uint32
	assoc    int
	lineBits uint
	setMask  uint32 // nsets-1, used when setShift >= 0
	setShift int    // log2(nsets), or -1 when nsets is not a power of two
	tick     uint64

	Hits, Misses, Evictions, DirtyEvictions int64
}

// New builds a cache from a configuration.
func New(cfg Config) *Cache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if nsets < 1 {
		nsets = 1
	}
	lb := uint(0)
	for 1<<lb < cfg.LineSize {
		lb++
	}
	c := &Cache{
		cfg:      cfg,
		lines:    make([]line, nsets*cfg.Assoc),
		nsets:    uint32(nsets),
		assoc:    cfg.Assoc,
		lineBits: lb,
		setShift: -1,
	}
	if nsets&(nsets-1) == 0 {
		c.setMask = uint32(nsets - 1)
		sh := 0
		for 1<<sh != nsets {
			sh++
		}
		c.setShift = sh
	}
	return c
}

// Latency returns the hit latency.
func (c *Cache) Latency() int { return c.cfg.Latency }

func (c *Cache) index(addr uint32) (set uint32, tag uint32) {
	l := addr >> c.lineBits
	if c.setShift >= 0 {
		return l & c.setMask, l >> uint(c.setShift)
	}
	return l % c.nsets, l / c.nsets
}

// set returns the ways of one set.
func (c *Cache) set(set uint32) []line {
	i := int(set) * c.assoc
	return c.lines[i : i+c.assoc]
}

// Lookup probes the cache without filling. Returns hit.
func (c *Cache) Lookup(addr uint32) bool {
	set, tag := c.index(addr)
	for _, l := range c.set(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Access performs a read or write. On a miss the line is filled
// (write-allocate). It returns whether the access hit and whether the fill
// evicted a dirty line (which costs a bus transfer upstream).
func (c *Cache) Access(addr uint32, write bool) (hit, dirtyEvict bool) {
	set, tag := c.index(addr)
	c.tick++
	s := c.set(set)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			s[i].lru = c.tick
			if write {
				s[i].dirty = true
			}
			c.Hits++
			return true, false
		}
	}
	c.Misses++
	// Fill: choose invalid way or LRU victim.
	victim := 0
	for i := range s {
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	if s[victim].valid {
		c.Evictions++
		if s[victim].dirty {
			c.DirtyEvictions++
			dirtyEvict = true
		}
	}
	s[victim] = line{valid: true, dirty: write, tag: tag, lru: c.tick}
	return false, dirtyEvict
}

// Reset restores the cache to its post-New state (all lines invalid,
// counters zero) without reallocating the line array, so pooled simulation
// machines can reuse it across runs.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.tick = 0
	c.Hits, c.Misses, c.Evictions, c.DirtyEvictions = 0, 0, 0, 0
}

// CopyFrom makes c an exact copy of src — configuration, lines, LRU clock
// and counters — reusing c's line array when it is large enough.
func (c *Cache) CopyFrom(src *Cache) {
	lines := append(c.lines[:0], src.lines...)
	*c = *src
	c.lines = lines
}

// ClearStats zeroes the access counters without touching line contents, so
// a functionally warmed cache starts a measured window with clean stats.
func (c *Cache) ClearStats() {
	c.Hits, c.Misses, c.Evictions, c.DirtyEvictions = 0, 0, 0, 0
}

// MissRate returns misses / (hits+misses).
func (c *Cache) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// TLB is a set-associative translation buffer over 4KB pages.
type TLB struct {
	inner *Cache
	// MissPenalty is the page-walk latency in cycles.
	MissPenalty int
}

const pageBits = 12

// NewTLB builds a TLB with the given total entries and associativity.
func NewTLB(entries, assoc, missPenalty int) *TLB {
	// Reuse the cache structure: one "byte" per page, line size 1, so the
	// total line count equals the requested entry count.
	return &TLB{
		inner:       New(Config{Size: entries, LineSize: 1, Assoc: assoc}),
		MissPenalty: missPenalty,
	}
}

// Access translates addr, returning the added latency (0 on hit).
func (t *TLB) Access(addr uint32) int {
	hit, _ := t.inner.Access(addr>>pageBits, false)
	if hit {
		return 0
	}
	return t.MissPenalty
}

// Misses returns the TLB miss count.
func (t *TLB) Misses() int64 { return t.inner.Misses }

// Reset restores the TLB to its post-New state without reallocating.
func (t *TLB) Reset() { t.inner.Reset() }

// ClearStats zeroes the miss counters, keeping translations resident.
func (t *TLB) ClearStats() { t.inner.ClearStats() }

// CopyFrom makes t an exact copy of src without reallocating.
func (t *TLB) CopyFrom(src *TLB) {
	t.inner.CopyFrom(src.inner)
	t.MissPenalty = src.MissPenalty
}

// HierConfig sizes a full hierarchy.
type HierConfig struct {
	L1I, L1D, L2 Config
	ITLBEntries  int
	DTLBEntries  int
	TLBAssoc     int
	TLBPenalty   int
	MemLatency   int // main-memory access latency
	BusInterval  int // core cycles per 16B bus transfer (bus at 1/4 core clock)
}

// DefaultHierConfig is Table 1's memory system.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:         Config{Size: 32 << 10, LineSize: 32, Assoc: 2, Latency: 3},
		L1D:         Config{Size: 32 << 10, LineSize: 32, Assoc: 2, Latency: 3},
		L2:          Config{Size: 1 << 20, LineSize: 64, Assoc: 4, Latency: 12},
		ITLBEntries: 64,
		DTLBEntries: 64,
		TLBAssoc:    4,
		TLBPenalty:  30,
		MemLatency:  200,
		// 32B L1 line over a 16B bus at 1/4 core clock: 2 beats * 4 = 8 cycles.
		BusInterval: 8,
	}
}

// Hierarchy is the complete memory system.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB
	cfg          HierConfig
	busFree      int64 // next cycle the memory bus is free

	MemAccesses int64
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	return &Hierarchy{
		L1I:  New(cfg.L1I),
		L1D:  New(cfg.L1D),
		L2:   New(cfg.L2),
		ITLB: NewTLB(cfg.ITLBEntries, cfg.TLBAssoc, cfg.TLBPenalty),
		DTLB: NewTLB(cfg.DTLBEntries, cfg.TLBAssoc, cfg.TLBPenalty),
		cfg:  cfg,
	}
}

// Reset restores every level of the hierarchy to its post-New state without
// reallocating, so pooled simulation machines can reuse it across runs.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.busFree = 0
	h.MemAccesses = 0
}

// CopyFrom makes h an exact copy of src — every level's contents and
// counters, the bus state and the configuration — without reallocating.
// A functionally warmed hierarchy copied into a machine's stands in for
// replaying the same warm-up there.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.L1I.CopyFrom(src.L1I)
	h.L1D.CopyFrom(src.L1D)
	h.L2.CopyFrom(src.L2)
	h.ITLB.CopyFrom(src.ITLB)
	h.DTLB.CopyFrom(src.DTLB)
	h.cfg = src.cfg
	h.busFree = src.busFree
	h.MemAccesses = src.MemAccesses
}

// ClearStats zeroes every level's access counters and the memory-access
// count, keeping all resident lines and translations. Pair with WarmI/WarmD:
// warm first, clear, then measure.
func (h *Hierarchy) ClearStats() {
	h.L1I.ClearStats()
	h.L1D.ClearStats()
	h.L2.ClearStats()
	h.ITLB.ClearStats()
	h.DTLB.ClearStats()
	h.MemAccesses = 0
}

// warm performs a functional (timing-free) access: the TLB, L1, and — on an
// L1 miss — L2 fill exactly as a timed access would, but the memory bus and
// the MemAccesses counter are untouched, so pre-warming cannot perturb the
// timing of the measured window that follows.
func (h *Hierarchy) warm(l1 *Cache, tlb *TLB, addr uint32, write bool) {
	tlb.Access(addr)
	hit, _ := l1.Access(addr, write)
	if !hit {
		h.L2.Access(addr, false)
	}
}

// WarmI functionally fills the instruction path for addr (no timing).
func (h *Hierarchy) WarmI(addr uint32) { h.warm(h.L1I, h.ITLB, addr, false) }

// WarmD functionally fills the data path for addr (no timing).
func (h *Hierarchy) WarmD(addr uint32, write bool) { h.warm(h.L1D, h.DTLB, addr, write) }

// memAccess serializes a main-memory transfer on the bus starting no
// earlier than `ready` and returns its completion cycle.
func (h *Hierarchy) memAccess(ready int64) int64 {
	start := ready
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + int64(h.cfg.BusInterval)
	h.MemAccesses++
	return start + int64(h.cfg.MemLatency)
}

func (h *Hierarchy) access(now int64, l1 *Cache, tlb *TLB, addr uint32, write bool) int64 {
	t := now + int64(tlb.Access(addr))
	hit, dirty := l1.Access(addr, write)
	if dirty {
		// Eviction buffer: consume a future bus slot without delaying us.
		h.busFree += int64(h.cfg.BusInterval)
	}
	t += int64(l1.Latency())
	if hit {
		return t
	}
	hit2, dirty2 := h.L2.Access(addr, false)
	if dirty2 {
		h.busFree += int64(h.cfg.BusInterval)
	}
	t += int64(h.L2.Latency())
	if hit2 {
		return t
	}
	return h.memAccess(t)
}

// AccessI fetches instruction memory at cycle now; returns completion cycle.
func (h *Hierarchy) AccessI(now int64, addr uint32) int64 {
	return h.access(now, h.L1I, h.ITLB, addr, false)
}

// AccessD performs a data access at cycle now; returns completion cycle.
func (h *Hierarchy) AccessD(now int64, addr uint32, write bool) int64 {
	return h.access(now, h.L1D, h.DTLB, addr, write)
}

// L1DHitLatency is the common-case load-to-use latency the scheduler
// speculates on when it issues dependents of a load.
func (h *Hierarchy) L1DHitLatency() int { return h.cfg.L1D.Latency }
