package pipeline

import (
	"math"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minigraph"
	"repro/internal/prog"
	"repro/internal/storesets"
)

// Functional warm-up for sampled windows (the gem5 cache-warmup idea): before
// a detailed window is measured, the preceding trace segment is replayed into
// the machine's long-lived predictive structures — caches, TLBs, direction
// predictor, BTB, RAS, and store sets — without advancing any timing state.
// The replay mirrors the access stream the detailed model would have
// generated (fetch one I-cache access per line transition, loads at their
// effective address, stores as write-allocating accesses, the exact
// predictor-update sequence of predictBranch), then clears every stat
// counter so the measured window starts with a hot machine and clean stats.
//
// The state a warm-up reaches depends only on the records it replayed, so
// one replay that walks the trace forward can stand for a from-scratch
// replay of every prefix it passes: copying its predictors out at a
// window's start gives that window exactly the machine a replay of the
// window's whole prefix would have.

// predictors is the predictive state a functional warm-up trains. A machine
// embeds one; representative sampling also runs a standalone set (pooled by
// geometry, see getPredictors) as the carrier of its single warm pass.
type predictors struct {
	hier *cache.Hierarchy
	bp   *bpred.Predictor
	ss   *storesets.Predictor
}

func newPredictors(cfg Config) predictors {
	return predictors{
		hier: cache.NewHierarchy(cfg.Hier),
		bp:   bpred.New(cfg.Bpred),
		ss:   storesets.New(cfg.StoreSetEntries),
	}
}

// reset restores every structure to its post-New state without reallocating.
func (ps *predictors) reset() {
	ps.hier.Reset()
	ps.bp.Reset()
	ps.ss.Reset()
}

// copyFrom makes ps an exact copy of src, which must share its geometry.
func (ps *predictors) copyFrom(src *predictors) {
	ps.hier.CopyFrom(src.hier)
	ps.bp.CopyFrom(src.bp)
	ps.ss.CopyFrom(src.ss)
}

// clearStats zeroes the stat counters a warm-up dirtied, so a measured
// window starts hot but clean.
func (ps *predictors) clearStats() {
	ps.hier.ClearStats()
	ps.bp.ClearStats()
	ps.ss.ClearStats()
}

// warmStoreSetHorizon is the dynamic-instruction distance within which a
// load reading a just-stored word can plausibly have been in flight with the
// store (roughly the reorder-window reach).
const warmStoreSetHorizon = 64

// A same-word store→load pair inside the horizon pre-trains the store-sets
// predictor only once it has recurred at the SAME dynamic distance: a
// loop-carried memory dependence marches through the trace at a fixed offset
// and is exactly the systematic overlap that fires a real violation once and
// stays trained, while incidental collisions (one-off address reuse, varying
// offsets) never line up in time — training them would serialize loads the
// real machine happily speculates past.
type warmRecentStore struct {
	pos int // dynamic position of the store in the warm segment
	pc  uint32
}

// warmPairKey identifies a static store→load pair.
type warmPairKey struct{ loadPC, storePC uint32 }

// warmReplay is one functional warm-up in progress: the predictors it
// trains, the program and layout that place instructions, the current
// I-cache line, the most recent store per word, and the per-pair distance
// history the store-set rule needs. Records arrive one at a time through
// add, so one replay can pause at each window's pre-roll start and resume
// toward the next (see runRepWindows).
type warmReplay struct {
	ps       *predictors
	p        *prog.Program
	layout   *minigraph.Layout
	curLine  uint32
	pos      int
	stores   map[uint32]warmRecentStore
	pairDist map[warmPairKey]int
}

// newWarmReplay starts a warm-up of ps for program p under layout, which
// must be the layout the warmed window's machine runs with.
func newWarmReplay(ps *predictors, p *prog.Program, layout *minigraph.Layout) *warmReplay {
	return &warmReplay{ps: ps, p: p, layout: layout, curLine: math.MaxUint32}
}

// add replays the next record into the predictors.
func (ws *warmReplay) add(rec emu.Rec) {
	i := ws.pos
	ws.pos++
	static := int(rec.Index)
	addr := ws.layout.InlineAddr(static)
	if line := addr >> 5; line != ws.curLine {
		ws.ps.hier.WarmI(addr)
		ws.curLine = line
	}
	in := ws.p.Code[static]
	switch {
	case in.IsLoad():
		ws.ps.hier.WarmD(rec.Addr, false)
		if st, ok := ws.stores[rec.Addr>>2]; ok && i-st.pos <= warmStoreSetHorizon {
			k := warmPairKey{loadPC: prog.PCOf(static), storePC: st.pc}
			d := i - st.pos
			if ws.pairDist == nil {
				ws.pairDist = make(map[warmPairKey]int)
			}
			switch prev, seen := ws.pairDist[k]; {
			case !seen:
				ws.pairDist[k] = d
			case prev == d:
				ws.ps.ss.Violation(k.loadPC, k.storePC)
			default:
				ws.pairDist[k] = -1 // irregular spacing: never train this pair
			}
		}
	case in.IsStore():
		ws.ps.hier.WarmD(rec.Addr, true)
		if ws.stores == nil {
			ws.stores = make(map[uint32]warmRecentStore)
		}
		ws.stores[rec.Addr>>2] = warmRecentStore{pos: i, pc: prog.PCOf(static)}
	case in.IsBranch():
		ws.branch(static, rec)
	}
}

// branch trains the front-end predictors for one control transfer,
// following predictBranch's update sequence exactly (prediction before
// update, BTB touched only on the paths the detailed model touches it).
func (ws *warmReplay) branch(static int, rec emu.Rec) {
	bp := ws.ps.bp
	in := ws.p.Code[static]
	pc := prog.PCOf(static)
	taken := rec.Taken
	next := int(rec.Next)

	switch {
	case in.IsCondBranch():
		pred := bp.PredictDirection(pc)
		bp.UpdateDirection(pc, taken)
		if pred == taken && taken {
			warmTarget(bp, pc, next)
		}
	case in.Op == isa.OpBr:
		warmTarget(bp, pc, next)
	case in.Op == isa.OpJsr, in.Op == isa.OpJsrI:
		bp.PushRAS(prog.PCOf(static + 1))
		warmTarget(bp, pc, next)
	case in.IsReturn():
		bp.PopRAS()
	default: // indirect jmp
		warmTarget(bp, pc, next)
	}
}

// warmTarget performs the BTB lookup+update pair of predictTakenTarget.
func warmTarget(bp *bpred.Predictor, pc uint32, next int) {
	if next < 0 {
		return
	}
	bp.PredictTarget(pc)
	bp.UpdateTarget(pc, prog.PCOf(next))
}
