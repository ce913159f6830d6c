// Package emu is the functional (architectural) emulator. It executes a
// program to completion and produces the committed dynamic instruction
// trace that the timing pipeline replays: for every committed instruction,
// its static index, the static index of its successor, and its memory
// effective address if any.
//
// The emulator is oblivious to mini-graphs: aggregation is a
// microarchitectural transformation applied by the pipeline at fetch, so a
// single functional run serves every selector and machine configuration.
package emu

import (
	"slices"
	"sync"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Rec is one committed dynamic instruction.
type Rec struct {
	Index int32  // static instruction index
	Next  int32  // static index of the next committed instruction, -1 after halt
	Addr  uint32 // memory effective address (loads/stores), else 0
	Taken bool   // for control transfers: whether the transfer was taken
}

// Result is the outcome of a functional run.
type Result struct {
	Trace     []Rec
	DynInstrs int64
	// Regs holds final architectural register values; by workload
	// convention RV (r0) carries a result checksum at halt.
	Regs [isa.NumRegs]uint32
	// Loads/Stores count dynamic memory operations.
	Loads, Stores int64
	// Branches and Taken count dynamic control transfers.
	Branches, Taken int64
}

// Checksum returns the workload result checksum (register RV at halt).
func (r *Result) Checksum() uint32 { return r.Regs[isa.RV] }

// Options configures a run.
type Options struct {
	// MaxInstrs bounds dynamic instructions; 0 means DefaultMaxInstrs.
	// Exceeding the bound is an error (runaway program).
	MaxInstrs int64
	// CollectTrace enables trace collection. When false, only counters and
	// final state are produced (used by quick functional checks).
	CollectTrace bool
}

// DefaultMaxInstrs bounds runaway programs.
const DefaultMaxInstrs = 64 << 20

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse byte-addressed memory of 4KB pages. The zero value is
// ready to use.
type Memory struct {
	pages map[uint32]*[pageSize]byte
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	return p
}

// LoadByte returns the byte at addr (0 if never written).
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// LoadWord returns the little-endian 32-bit word at addr.
func (m *Memory) LoadWord(addr uint32) uint32 {
	// Fast path: word within one page.
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	return uint32(m.LoadByte(addr)) | uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 | uint32(m.LoadByte(addr+3))<<24
}

// StoreWord stores a little-endian 32-bit word.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p := m.page(addr, true)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// LoadImage copies data into memory starting at base.
func (m *Memory) LoadImage(base uint32, data []byte) {
	for i, b := range data {
		m.StoreByte(base+uint32(i), b)
	}
}

// Run executes p to the halt instruction and returns the trace and final
// state. It returns an error for runaway executions, out-of-range control
// transfers, or falling off the end of the code. It is the one-shot form of
// the resumable State (see state.go).
//
// The trace is emulated into a reused scratch buffer and returned as an
// exact-length copy (rounded up only to the allocator's page). A trace
// grown in place would keep its spare capacity — all of the 1 MiB
// reservation a short trace leaves unused — pinned by every holder of
// the Result. A trace longer than the scratch is emulated a scratchful at
// a time, each full piece copied out, and the pieces joined at the end:
// that touches less fresh memory than growing one buffer.
func Run(p *prog.Program, opts Options) (*Result, error) {
	s := NewState(p, Options{MaxInstrs: opts.MaxInstrs})
	if !opts.CollectTrace {
		if err := s.RunToEnd(); err != nil {
			return nil, err
		}
		return s.Result(), nil
	}
	scratch := getScratch()
	defer putScratch(scratch)
	s.collect = true
	var pieces [][]Rec
	for {
		s.trace = scratch[:0]
		if err := s.RunTo(s.DynInstrs() + int64(cap(scratch))); err != nil {
			return nil, err
		}
		if s.Halted() {
			break
		}
		pieces = append(pieces, append([]Rec(nil), s.trace...))
	}
	res := s.Result()
	if pieces == nil {
		res.Trace = append([]Rec(nil), s.trace...)
	} else {
		res.Trace = slices.Concat(append(pieces, s.trace)...)
	}
	return res, nil
}

// traceReserve is the record capacity a collecting emulation starts with
// (1 MiB).
const traceReserve = 1 << 16

// traceScratch is Run's emulation buffer of traceReserve records. Unlike
// a sync.Pool's, it survives garbage collection, so a run emulates into
// memory the process already holds instead of freshly faulted pages. It
// keeps one buffer; a concurrent run reserves its own.
var traceScratch struct {
	sync.Mutex
	buf []Rec
}

func getScratch() []Rec {
	traceScratch.Lock()
	defer traceScratch.Unlock()
	b := traceScratch.buf
	traceScratch.buf = nil
	if b == nil {
		b = make([]Rec, 0, traceReserve)
	}
	return b
}

func putScratch(b []Rec) {
	traceScratch.Lock()
	defer traceScratch.Unlock()
	traceScratch.buf = b[:0]
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
