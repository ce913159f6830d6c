package emu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/prog"
)

// State is a resumable functional execution: the same interpreter Run uses,
// but stoppable at any committed-instruction boundary. A State created with
// NewState and driven to halt produces results byte-identical to Run.
type State struct {
	p         *prog.Program
	mem       Memory
	regs      [isa.NumRegs]uint32
	pc        int
	halted    bool
	maxInstrs int64
	collect   bool
	trace     []Rec

	dynInstrs, loads, stores, branches, taken int64
}

// NewState prepares a fresh execution of p. Nothing runs until RunTo or
// RunToEnd is called.
func NewState(p *prog.Program, opts Options) *State {
	maxInstrs := opts.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}
	s := &State{p: p, pc: p.Entry, maxInstrs: maxInstrs, collect: opts.CollectTrace}
	s.mem.LoadImage(prog.DataBase, p.Data)
	s.regs[isa.SP] = prog.StackTop
	if s.collect {
		s.trace = make([]Rec, 0, traceReserve)
	}
	return s
}

// Halted reports whether the program has committed its halt instruction.
func (s *State) Halted() bool { return s.halted }

// DynInstrs returns the cumulative committed-instruction count.
func (s *State) DynInstrs() int64 { return s.dynInstrs }

// Result assembles the functional result of the execution so far. After the
// State has halted this matches Run's Result exactly.
func (s *State) Result() *Result {
	return &Result{
		Trace:     s.trace,
		DynInstrs: s.dynInstrs,
		Regs:      s.regs,
		Loads:     s.loads,
		Stores:    s.stores,
		Branches:  s.branches,
		Taken:     s.taken,
	}
}

// RunTo executes until the cumulative committed-instruction count reaches n
// or the program halts, whichever comes first. It is a no-op if already
// halted or past n.
func (s *State) RunTo(n int64) error { return s.run(n) }

// RunToEnd executes until halt (or until the instruction bound is exceeded,
// which is an error, as in Run).
func (s *State) RunToEnd() error { return s.run(math.MaxInt64) }

// run is the interpreter loop. State is staged into locals for the hot loop
// and written back on every exit path, so the State is consistent at any
// instruction boundary.
func (s *State) run(target int64) error {
	if s.halted {
		return nil
	}
	p := s.p
	code := p.Code
	n := len(code)
	pc := s.pc
	regs := s.regs
	mem := &s.mem
	collect := s.collect
	trace := s.trace
	dyn, loads, stores, branches, takenCnt := s.dynInstrs, s.loads, s.stores, s.branches, s.taken
	halted := false
	var err error

	read := func(r isa.Reg) uint32 {
		if r == isa.ZeroReg || r == isa.NoReg {
			return 0
		}
		return regs[r]
	}
	write := func(r isa.Reg, v uint32) {
		if r != isa.ZeroReg && r != isa.NoReg && r.Valid() {
			regs[r] = v
		}
	}

loop:
	for dyn < target {
		if dyn >= s.maxInstrs {
			err = fmt.Errorf("emu: %s exceeded %d dynamic instructions", p.Name, s.maxInstrs)
			break
		}
		if pc < 0 || pc >= n {
			err = fmt.Errorf("emu: %s: pc %d out of range", p.Name, pc)
			break
		}
		in := code[pc]
		next := pc + 1
		var addr uint32
		taken := false

		switch in.Op {
		case isa.OpNop:
		case isa.OpHalt:
			// Committed below, then the run ends.
		case isa.OpAdd:
			write(in.Rd, read(in.Rs1)+read(in.Rs2))
		case isa.OpSub:
			write(in.Rd, read(in.Rs1)-read(in.Rs2))
		case isa.OpAnd:
			write(in.Rd, read(in.Rs1)&read(in.Rs2))
		case isa.OpOr:
			write(in.Rd, read(in.Rs1)|read(in.Rs2))
		case isa.OpXor:
			write(in.Rd, read(in.Rs1)^read(in.Rs2))
		case isa.OpSll:
			write(in.Rd, read(in.Rs1)<<(read(in.Rs2)&31))
		case isa.OpSrl:
			write(in.Rd, read(in.Rs1)>>(read(in.Rs2)&31))
		case isa.OpSra:
			write(in.Rd, uint32(int32(read(in.Rs1))>>(read(in.Rs2)&31)))
		case isa.OpCmpEq:
			write(in.Rd, b2u(read(in.Rs1) == read(in.Rs2)))
		case isa.OpCmpLt:
			write(in.Rd, b2u(int32(read(in.Rs1)) < int32(read(in.Rs2))))
		case isa.OpCmpLe:
			write(in.Rd, b2u(int32(read(in.Rs1)) <= int32(read(in.Rs2))))
		case isa.OpCmpUlt:
			write(in.Rd, b2u(read(in.Rs1) < read(in.Rs2)))
		case isa.OpAddi:
			write(in.Rd, read(in.Rs1)+uint32(in.Imm))
		case isa.OpSubi:
			write(in.Rd, read(in.Rs1)-uint32(in.Imm))
		case isa.OpAndi:
			write(in.Rd, read(in.Rs1)&uint32(in.Imm))
		case isa.OpOri:
			write(in.Rd, read(in.Rs1)|uint32(in.Imm))
		case isa.OpXori:
			write(in.Rd, read(in.Rs1)^uint32(in.Imm))
		case isa.OpSlli:
			write(in.Rd, read(in.Rs1)<<(uint32(in.Imm)&31))
		case isa.OpSrli:
			write(in.Rd, read(in.Rs1)>>(uint32(in.Imm)&31))
		case isa.OpSrai:
			write(in.Rd, uint32(int32(read(in.Rs1))>>(uint32(in.Imm)&31)))
		case isa.OpCmpEqi:
			write(in.Rd, b2u(read(in.Rs1) == uint32(in.Imm)))
		case isa.OpCmpLti:
			write(in.Rd, b2u(int32(read(in.Rs1)) < int32(in.Imm)))
		case isa.OpCmpLei:
			write(in.Rd, b2u(int32(read(in.Rs1)) <= int32(in.Imm)))
		case isa.OpLda:
			write(in.Rd, uint32(in.Imm))
		case isa.OpMul:
			write(in.Rd, read(in.Rs1)*read(in.Rs2))
		case isa.OpDiv:
			d := int32(read(in.Rs2))
			if d == 0 {
				write(in.Rd, 0) // division by zero is defined as 0
			} else {
				write(in.Rd, uint32(int32(read(in.Rs1))/d))
			}
		case isa.OpRem:
			d := int32(read(in.Rs2))
			if d == 0 {
				write(in.Rd, 0)
			} else {
				write(in.Rd, uint32(int32(read(in.Rs1))%d))
			}
		case isa.OpLdw:
			addr = read(in.Rs1) + uint32(in.Imm)
			write(in.Rd, mem.LoadWord(addr))
			loads++
		case isa.OpLdb:
			addr = read(in.Rs1) + uint32(in.Imm)
			write(in.Rd, uint32(mem.LoadByte(addr)))
			loads++
		case isa.OpStw:
			addr = read(in.Rs1) + uint32(in.Imm)
			mem.StoreWord(addr, read(in.Rs2))
			stores++
		case isa.OpStb:
			addr = read(in.Rs1) + uint32(in.Imm)
			mem.StoreByte(addr, byte(read(in.Rs2)))
			stores++
		case isa.OpBr:
			next, taken = in.Targ, true
			branches++
			takenCnt++
		case isa.OpBeqz, isa.OpBnez, isa.OpBltz, isa.OpBgez:
			v := int32(read(in.Rs1))
			switch in.Op {
			case isa.OpBeqz:
				taken = v == 0
			case isa.OpBnez:
				taken = v != 0
			case isa.OpBltz:
				taken = v < 0
			case isa.OpBgez:
				taken = v >= 0
			}
			if taken {
				next = in.Targ
				takenCnt++
			}
			branches++
		case isa.OpJsr:
			write(in.Rd, prog.PCOf(pc+1))
			next, taken = in.Targ, true
			branches++
			takenCnt++
		case isa.OpJsrI:
			t := read(in.Rs1)
			write(in.Rd, prog.PCOf(pc+1))
			next, taken = prog.IndexOf(t), true
			branches++
			takenCnt++
		case isa.OpJmp, isa.OpRet:
			next, taken = prog.IndexOf(read(in.Rs1)), true
			branches++
			takenCnt++
		default:
			err = fmt.Errorf("emu: %s: pc %d: unimplemented op %s", p.Name, pc, in.Op)
			break loop
		}

		dyn++
		if in.Op == isa.OpHalt {
			if collect {
				trace = append(trace, Rec{Index: int32(pc), Next: -1})
			}
			halted = true
			break
		}
		if collect {
			trace = append(trace, Rec{Index: int32(pc), Next: int32(next), Addr: addr, Taken: taken})
		}
		pc = next
	}

	s.pc = pc
	s.regs = regs
	s.trace = trace
	s.dynInstrs, s.loads, s.stores, s.branches, s.taken = dyn, loads, stores, branches, takenCnt
	s.halted = halted
	return err
}
