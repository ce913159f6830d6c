package bpred

import (
	"math/rand"
	"reflect"
	"testing"
)

// predStep drives one random predictor operation and returns its outcome.
func predStep(p *Predictor, r *rand.Rand) uint32 {
	pc := uint32(r.Intn(1<<16)) &^ 3
	switch r.Intn(4) {
	case 0:
		pred := p.PredictDirection(pc)
		return b2u(pred)<<1 | b2u(p.UpdateDirection(pc, r.Intn(3) != 0))
	case 1:
		tgt, ok := p.PredictTarget(pc)
		p.UpdateTarget(pc, pc+uint32(r.Intn(64))*4)
		return tgt ^ b2u(ok)
	case 2:
		p.PushRAS(pc)
		return 0
	default:
		ret, ok := p.PopRAS()
		return ret ^ b2u(ok)
	}
}

// TestPredictorCopyFrom checks that a copy is exact: equal to its source,
// and answering the same operation stream identically afterwards.
func TestPredictorCopyFrom(t *testing.T) {
	src, dst := New(DefaultConfig()), New(DefaultConfig())
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		predStep(src, r)
		predStep(dst, r) // a different history for the copy to overwrite
	}
	dst.CopyFrom(src)
	if !reflect.DeepEqual(src, dst) {
		t.Fatal("copy differs from its source")
	}
	ra, rb := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		if a, b := predStep(src, ra), predStep(dst, rb); a != b {
			t.Fatalf("operation %d: source answered %#x, copy %#x", i, a, b)
		}
	}
	if !reflect.DeepEqual(src, dst) {
		t.Error("copy diverged from its source on the same operation stream")
	}
}
