package pipeline

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/minigraph"
	"repro/internal/prog"
)

// Static uop templates: decode once, instantiate per fetch.
//
// A machine decodes its run's (program, selection) pair once, in
// setupMachine, into one template per static instruction, one per selected
// mini-graph instance, and the shared outlining-jump template. Every
// dynamic uop points at its template and adds only what the trace record
// supplies (memory address, branch outcome); fetch, rename, execute and
// branch prediction read the template instead of decoding prog.Code again.
// This is the static/dynamic instruction split of gem5's CPU models: a
// StaticInst is decoded once and shared, with one DynInst per instance, and
// it mirrors the paper's handles, which index a Mini-Graph Table entry
// decoded once.
//
// The table lives on the pooled machine and is refilled per run (cost
// proportional to static instructions, not to the trace); allocating a
// fresh table per run instead cost 5% more allocation on the timing
// benchmark. Nothing outside the run may hold a pointer into it: a pooled
// machine refills it for its next run.

// uopStatic is a decoded uop template. Embedded in uop by pointer, so the
// uop reads its fields as its own.
type uopStatic struct {
	kind      uopKind
	op        isa.Op
	class     isa.Class
	meta      uint8 // the packed hotState meta byte (see packMeta)
	writesReg bool
	dstReg    isa.Reg

	isLoad, isStore bool

	nRecs  int // trace records one instance accounts for (0 for jumps)
	nSrc   int
	srcReg [3]isa.Reg

	hasBranch bool // an instance resolves a control transfer
	brKind    branchKind
	blockHead bool // first instruction of a basic block (slack profiling)

	addr    uint32 // inline fetch address
	memPC   uint32 // the memory operation's PC: its StoreSets index
	brPC    uint32
	memOff  int   // record offset of the memory constituent
	ctrlOff int   // record offset of the control constituent
	lat     int64 // singletons: execution latency of a non-memory, non-branch op

	// Handles: the selected instance, its constituents' execution classes
	// and latencies.
	mg   *minigraph.Instance
	cons [4]consStatic

	// Singletons: the template of the mini-graph selected to start at this
	// instruction, or nil.
	handle *uopStatic
}

// consStatic is one mini-graph constituent as the handle's serial ALU
// pipeline executes it.
type consStatic struct {
	kind consKind
	lat  uint8 // consALU only; memory and branch latencies are fixed or dynamic
}

type consKind uint8

const (
	consALU consKind = iota
	consLoad
	consStore
	consBranch
)

// branchKind is how the front end predicts a control transfer.
type branchKind uint8

const (
	brCond         branchKind = iota // conditional: direction, then target if taken
	brDirect                         // unconditional direct branch
	brCall                           // direct call: pushes the RAS
	brCallIndirect                   // indirect call: pushes the RAS
	brReturn                         // pops the RAS
	brIndirect                       // indirect jump
)

// branchKindOf classifies control transfer in for the front end. The
// templates and the functional warm-up both decide through it.
func branchKindOf(in isa.Instr) branchKind {
	switch {
	case in.IsCondBranch():
		return brCond
	case in.Op == isa.OpBr:
		return brDirect
	case in.Op == isa.OpJsr:
		return brCall
	case in.Op == isa.OpJsrI:
		return brCallIndirect
	case in.IsReturn():
		return brReturn
	}
	return brIndirect
}

// branchOutcome is how the front end fared on one control transfer.
type branchOutcome uint8

const (
	branchHit        branchOutcome = iota
	branchBubble                   // direct target missed in the BTB: recomputed at decode
	branchMispredict               // wrong direction or indirect target: fetch went down the wrong path
	branchRASMiss                  // wrong return address
)

// trainBranch predicts one control transfer of the given kind at pc and
// trains the front-end predictors with its actual outcome — prediction
// before update, the BTB touched only on the paths the front end touches
// it. The detailed model's fetch and the functional warm-up both run
// transfers through it, so they train the predictors identically.
func trainBranch(bp *bpred.Predictor, kind branchKind, pc uint32, taken bool, next int) branchOutcome {
	switch kind {
	case brCond:
		pred := bp.PredictDirection(pc)
		bp.UpdateDirection(pc, taken)
		if pred != taken {
			return branchMispredict
		}
		if !taken {
			return branchHit
		}
		return trainTarget(bp, pc, next, false)
	case brDirect:
		return trainTarget(bp, pc, next, true)
	case brCall, brCallIndirect:
		bp.PushRAS(pc + 4)
		return trainTarget(bp, pc, next, kind == brCall)
	case brReturn:
		top, ok := bp.PopRAS()
		if !ok || (next >= 0 && top != prog.PCOf(next)) {
			bp.NoteRASWrong()
			return branchRASMiss
		}
		return branchHit
	}
	return trainTarget(bp, pc, next, false)
}

// trainTarget models the BTB for a taken transfer. A direct transfer
// recovers a BTB miss at decode (a fetch bubble); an indirect one
// mispredicts on a BTB miss or a wrong target.
func trainTarget(bp *bpred.Predictor, pc uint32, next int, direct bool) branchOutcome {
	if next < 0 {
		return branchHit
	}
	want := prog.PCOf(next)
	got, ok := bp.PredictTarget(pc)
	bp.UpdateTarget(pc, want)
	if ok && got == want {
		return branchHit
	}
	if direct {
		return branchBubble
	}
	return branchMispredict
}

// jumpStatic is the template every outlining jump shares: a direct,
// always-taken branch with no operands.
var jumpStatic = func() uopStatic {
	t := uopStatic{kind: kindOverheadJump, op: isa.OpBr, class: isa.ClassJump}
	t.meta = packMeta(&t)
	return t
}()

// decodeStatics refills the machine's template table for program p under
// selection sel (nil for singleton execution), placing instructions at
// m.layout's inline addresses.
func (m *machine) decodeStatics(p *prog.Program, sel *minigraph.Selection) {
	m.statics = resize(m.statics, len(p.Code))
	for i := range p.Code {
		m.statics[i] = decodeSingleton(p, i, m.layout.InlineAddr(i))
	}
	if sel == nil {
		m.handles = m.handles[:0]
		return
	}
	m.handles = resize(m.handles, len(sel.Instances))
	for j := range sel.Instances {
		inst := &sel.Instances[j]
		h := &m.handles[j]
		*h = decodeHandle(p, inst, m.layout.InlineAddr(inst.Start))
		m.statics[inst.Start].handle = h
	}
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func decodeSingleton(p *prog.Program, i int, addr uint32) uopStatic {
	in := p.Code[i]
	t := uopStatic{
		kind:      kindSingleton,
		op:        in.Op,
		class:     isa.ClassOf(in.Op),
		nRecs:     1,
		addr:      addr,
		memPC:     prog.PCOf(i),
		blockHead: p.Blocks[p.BlockOf[i]].Start == i,
		lat:       int64(isa.Latency(in.Op)),
	}
	t.nSrc = len(in.AppendSources(t.srcReg[:0]))
	if in.WritesReg() {
		t.writesReg = true
		t.dstReg = in.Rd
	}
	t.isLoad = in.IsLoad()
	t.isStore = in.IsStore()
	if in.IsBranch() {
		t.hasBranch = true
		t.brPC = prog.PCOf(i)
		t.brKind = branchKindOf(in)
	}
	t.meta = packMeta(&t)
	return t
}

func decodeHandle(p *prog.Program, inst *minigraph.Instance, addr uint32) uopStatic {
	c := inst.Cand
	t := uopStatic{
		kind:      kindHandle,
		op:        p.Code[inst.Start].Op,
		class:     isa.ClassSimple,
		nRecs:     inst.N,
		addr:      addr,
		nSrc:      len(c.ExternalIns),
		blockHead: p.Blocks[p.BlockOf[inst.Start]].Start == inst.Start,
		mg:        inst,
	}
	copy(t.srcReg[:], c.ExternalIns)
	if c.OutputReg != isa.NoReg {
		t.writesReg = true
		t.dstReg = c.OutputReg
	}
	if c.MemIdx >= 0 {
		in := p.Code[inst.Start+c.MemIdx]
		t.isLoad = in.IsLoad()
		t.isStore = in.IsStore()
		t.memOff = c.MemIdx
		t.memPC = prog.PCOf(inst.Start + c.MemIdx)
	}
	if c.CtrlIdx >= 0 {
		t.hasBranch = true
		t.ctrlOff = c.CtrlIdx
		t.brPC = prog.PCOf(inst.Start + c.CtrlIdx)
		t.brKind = branchKindOf(p.Code[inst.Start+c.CtrlIdx])
	}
	for k := 0; k < inst.N; k++ {
		in := p.Code[inst.Start+k]
		switch {
		case in.IsLoad():
			t.cons[k].kind = consLoad
		case in.IsStore():
			t.cons[k].kind = consStore
		case in.IsBranch():
			t.cons[k].kind = consBranch
		default:
			t.cons[k].lat = uint8(isa.Latency(in.Op))
		}
	}
	t.meta = packMeta(&t)
	return t
}
