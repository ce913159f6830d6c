package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// hierStep drives one random access into h and returns its outcome.
func hierStep(h *Hierarchy, r *rand.Rand, now int64) int64 {
	addr := uint32(r.Intn(1<<22)) &^ 3
	switch r.Intn(4) {
	case 0:
		return h.AccessI(now, addr)
	case 1:
		return h.AccessD(now, addr, r.Intn(2) == 0)
	case 2:
		h.WarmI(addr)
	default:
		h.WarmD(addr, r.Intn(2) == 0)
	}
	return -1
}

// TestHierarchyCopyFrom checks that a copy is exact: equal to its source,
// and answering the same access stream identically afterwards.
func TestHierarchyCopyFrom(t *testing.T) {
	src, dst := NewHierarchy(DefaultHierConfig()), NewHierarchy(DefaultHierConfig())
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		hierStep(src, r, int64(i))
		hierStep(dst, r, int64(i)) // a different history for the copy to overwrite
	}
	dst.CopyFrom(src)
	if !reflect.DeepEqual(src, dst) {
		t.Fatal("copy differs from its source")
	}
	ra, rb := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		now := int64(50000 + i)
		if a, b := hierStep(src, ra, now), hierStep(dst, rb, now); a != b {
			t.Fatalf("access %d: source answered %d, copy %d", i, a, b)
		}
	}
	if !reflect.DeepEqual(src, dst) {
		t.Error("copy diverged from its source on the same access stream")
	}
}

// TestCacheCopyFromResizes copies across configurations: the copy takes
// the source's geometry as well as its contents.
func TestCacheCopyFromResizes(t *testing.T) {
	src := New(Config{Size: 4096, LineSize: 32, Assoc: 4, Latency: 2})
	dst := New(Config{Size: 512, LineSize: 16, Assoc: 1, Latency: 1})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		src.Access(uint32(r.Intn(1<<14)), r.Intn(2) == 0)
	}
	dst.CopyFrom(src)
	if !reflect.DeepEqual(src, dst) {
		t.Fatal("copy differs from its source")
	}
	for i := 0; i < 5000; i++ {
		addr, write := uint32(r.Intn(1<<14)), r.Intn(2) == 0
		h1, d1 := src.Access(addr, write)
		h2, d2 := dst.Access(addr, write)
		if h1 != h2 || d1 != d2 {
			t.Fatalf("access %d: source (%v, %v), copy (%v, %v)", i, h1, d1, h2, d2)
		}
	}
}
