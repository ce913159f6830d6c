package storesets

import (
	"math/rand"
	"reflect"
	"testing"
)

// ssStep drives one random predictor operation and returns its outcome.
func ssStep(p *Predictor, r *rand.Rand, tag int64) int64 {
	pc := uint32(r.Intn(1<<14)) &^ 3
	switch r.Intn(4) {
	case 0:
		p.Violation(pc, uint32(r.Intn(1<<14))&^3)
		return 0
	case 1:
		return p.RenameStore(pc, tag)
	case 2:
		p.CompleteStore(pc, tag-int64(r.Intn(8)))
		return 0
	default:
		return p.RenameLoad(pc)
	}
}

// TestPredictorCopyFrom checks that a copy is exact: equal to its source,
// and answering the same operation stream identically afterwards.
func TestPredictorCopyFrom(t *testing.T) {
	src, dst := New(1024), New(1024)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		ssStep(src, r, int64(i))
		ssStep(dst, r, int64(i)) // a different history for the copy to overwrite
	}
	dst.CopyFrom(src)
	if !reflect.DeepEqual(src, dst) {
		t.Fatal("copy differs from its source")
	}
	ra, rb := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		tag := int64(20000 + i)
		if a, b := ssStep(src, ra, tag), ssStep(dst, rb, tag); a != b {
			t.Fatalf("operation %d: source answered %d, copy %d", i, a, b)
		}
	}
	if !reflect.DeepEqual(src, dst) {
		t.Error("copy diverged from its source on the same operation stream")
	}
}
