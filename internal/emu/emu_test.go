package emu

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/prog"
)

func run(t *testing.T, p *prog.Program) *Result {
	t.Helper()
	res, err := Run(p, Options{CollectTrace: true})
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name, err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	b := prog.NewBuilder("arith")
	b.Li(1, 7)
	b.Li(2, 5)
	b.Add(3, 1, 2) // 12
	b.Sub(4, 1, 2) // 2
	b.Mul(5, 1, 2) // 35
	b.Div(6, 5, 1) // 5
	b.Rem(7, 5, 2) // 0
	b.Xor(8, 1, 2) // 2
	b.Add(0, 3, 5) // rv = 47
	b.Halt()
	res := run(t, b.MustBuild())
	if res.Checksum() != 47 {
		t.Errorf("checksum = %d, want 47", res.Checksum())
	}
	if res.Regs[4] != 2 || res.Regs[6] != 5 || res.Regs[7] != 0 {
		t.Errorf("regs = r4:%d r6:%d r7:%d", res.Regs[4], res.Regs[6], res.Regs[7])
	}
}

func TestSignedOps(t *testing.T) {
	b := prog.NewBuilder("signed")
	b.Li(1, -8&0xffffffff) // r1 = -8
	b.Li(2, 3)
	b.Srai(3, 1, 1)   // -4
	b.Srli(4, 1, 28)  // 0xf
	b.CmpLt(5, 1, 2)  // 1 (signed -8 < 3)
	b.CmpUlt(6, 1, 2) // 0 (unsigned huge > 3)
	b.Div(7, 1, 2)    // -2 (Go truncation)
	b.Rem(8, 1, 2)    // -2
	b.Halt()
	res := run(t, b.MustBuild())
	if int32(res.Regs[3]) != -4 {
		t.Errorf("srai = %d, want -4", int32(res.Regs[3]))
	}
	if res.Regs[4] != 0xf {
		t.Errorf("srli = %#x, want 0xf", res.Regs[4])
	}
	if res.Regs[5] != 1 || res.Regs[6] != 0 {
		t.Errorf("cmplt=%d cmpult=%d, want 1,0", res.Regs[5], res.Regs[6])
	}
	if int32(res.Regs[7]) != -2 || int32(res.Regs[8]) != -2 {
		t.Errorf("div=%d rem=%d, want -2,-2", int32(res.Regs[7]), int32(res.Regs[8]))
	}
}

func TestDivideByZeroDefined(t *testing.T) {
	b := prog.NewBuilder("divzero")
	b.Li(1, 42)
	b.Li(2, 0)
	b.Div(3, 1, 2)
	b.Rem(4, 1, 2)
	b.Halt()
	res := run(t, b.MustBuild())
	if res.Regs[3] != 0 || res.Regs[4] != 0 {
		t.Errorf("div/rem by zero = %d,%d, want 0,0", res.Regs[3], res.Regs[4])
	}
}

func TestLoop(t *testing.T) {
	// sum 1..100 = 5050
	b := prog.NewBuilder("sum")
	b.Li(1, 100)
	b.Li(2, 0)
	b.Label("loop")
	b.Add(2, 2, 1)
	b.Subi(1, 1, 1)
	b.Bnez(1, "loop")
	b.Mov(0, 2)
	b.Halt()
	res := run(t, b.MustBuild())
	if res.Checksum() != 5050 {
		t.Errorf("sum = %d, want 5050", res.Checksum())
	}
	// 100 iterations, bnez taken 99 times.
	if res.Branches != 100 || res.Taken != 99 {
		t.Errorf("branches=%d taken=%d, want 100,99", res.Branches, res.Taken)
	}
}

func TestMemory(t *testing.T) {
	b := prog.NewBuilder("mem")
	arr := b.Words(10, 20, 30, 40)
	b.Li(1, arr)
	b.Ldw(2, 1, 0)
	b.Ldw(3, 1, 4)
	b.Ldw(4, 1, 12)
	b.Add(5, 2, 3)
	b.Add(5, 5, 4) // 70
	b.Stw(5, 1, 16)
	b.Ldw(0, 1, 16)
	b.Halt()
	res := run(t, b.MustBuild())
	if res.Checksum() != 70 {
		t.Errorf("checksum = %d, want 70", res.Checksum())
	}
	if res.Loads != 4 || res.Stores != 1 {
		t.Errorf("loads=%d stores=%d, want 4,1", res.Loads, res.Stores)
	}
}

func TestBytes(t *testing.T) {
	b := prog.NewBuilder("bytes")
	s := b.Bytes([]byte{0xff, 0x01})
	b.Li(1, s)
	b.Ldb(2, 1, 0) // 255 zero-extended
	b.Ldb(3, 1, 1) // 1
	b.Li(4, 0x1234)
	b.Stb(4, 1, 2) // stores 0x34
	b.Ldb(5, 1, 2)
	b.Add(0, 2, 3)
	b.Halt()
	res := run(t, b.MustBuild())
	if res.Checksum() != 256 {
		t.Errorf("checksum = %d, want 256", res.Checksum())
	}
	if res.Regs[5] != 0x34 {
		t.Errorf("stb/ldb = %#x, want 0x34", res.Regs[5])
	}
}

func TestCallReturn(t *testing.T) {
	b := prog.NewBuilder("call")
	b.Li(1, 6)
	b.Jsr("double")
	b.Mov(2, 0)
	b.Jsr("double") // doubles r1 again? double uses r1 input, rv output
	b.Add(0, 0, 2)
	b.Halt()
	b.Label("double")
	b.Add(0, 1, 1)
	b.Mov(1, 0)
	b.Ret()
	res := run(t, b.MustBuild())
	// First call: rv=12, r1=12, r2=12. Second: rv=24. Total 36.
	if res.Checksum() != 36 {
		t.Errorf("checksum = %d, want 36", res.Checksum())
	}
}

func TestIndirectJump(t *testing.T) {
	b := prog.NewBuilder("ijmp")
	b.Li(1, 0)
	tgt := b.Pos() + 2 // the instruction after jmpr
	b.Li(2, int64(prog.PCOf(tgt+1)))
	b.JmpR(2)
	b.Li(1, 99) // skipped
	b.Mov(0, 1)
	b.Halt()
	res := run(t, b.MustBuild())
	if res.Checksum() != 0 {
		t.Errorf("checksum = %d, want 0 (li skipped)", res.Checksum())
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	b := prog.NewBuilder("zero")
	b.Li(isa.ZeroReg, 77)
	b.Add(isa.ZeroReg, isa.ZeroReg, isa.ZeroReg)
	b.Mov(0, isa.ZeroReg)
	b.Halt()
	res := run(t, b.MustBuild())
	if res.Checksum() != 0 {
		t.Errorf("zero register was written: rv = %d", res.Checksum())
	}
}

func TestTraceShape(t *testing.T) {
	b := prog.NewBuilder("trace")
	b.Li(1, 2) // 0
	b.Label("loop")
	b.Subi(1, 1, 1)   // 1
	b.Bnez(1, "loop") // 2
	b.Halt()          // 3
	res := run(t, b.MustBuild())
	want := []struct {
		index, next int32
		taken       bool
	}{
		{0, 1, false},
		{1, 2, false},
		{2, 1, true}, // taken back edge
		{1, 2, false},
		{2, 3, false}, // not taken
		{3, -1, false},
	}
	if len(res.Trace) != len(want) {
		t.Fatalf("trace len = %d, want %d", len(res.Trace), len(want))
	}
	for i, w := range want {
		r := res.Trace[i]
		if r.Index != w.index || r.Next != w.next || r.Taken != w.taken {
			t.Errorf("trace[%d] = %+v, want %+v", i, r, w)
		}
	}
	if res.DynInstrs != int64(len(want)) {
		t.Errorf("DynInstrs = %d, want %d", res.DynInstrs, len(want))
	}
}

// TestRunTraceExactLength: Run returns its trace as a copy of the
// emulation buffer, with no more spare capacity than the allocator's
// rounding to one 8 KiB page, equal to the trace a State collects in one
// growing buffer — also when the trace is several scratchfuls long — and
// the copy is the caller's: a later Run reuses the buffer, never the
// returned trace.
func TestRunTraceExactLength(t *testing.T) {
	for _, iters := range []int64{5000, traceReserve + 1234} {
		b := prog.NewBuilder("long")
		b.Li(1, iters)
		b.Label("loop")
		b.Subi(1, 1, 1)
		b.Bnez(1, "loop")
		b.Halt()
		p := b.MustBuild()
		res := run(t, p)
		if want := 2*int(iters) + 2; len(res.Trace) != want {
			t.Fatalf("trace len = %d, want %d", len(res.Trace), want)
		}
		if spare := (cap(res.Trace) - len(res.Trace)) * int(unsafe.Sizeof(Rec{})); spare >= 8192 {
			t.Errorf("trace carries %d bytes of spare capacity (cap %d, len %d)", spare, cap(res.Trace), len(res.Trace))
		}
		s := NewState(p, Options{CollectTrace: true})
		if err := s.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		want := s.Result()
		if len(want.Trace) != len(res.Trace) || want.Regs != res.Regs || want.DynInstrs != res.DynInstrs {
			t.Fatalf("Run and State disagree: %d/%d records, %d/%d instructions",
				len(res.Trace), len(want.Trace), res.DynInstrs, want.DynInstrs)
		}
		for i := range want.Trace {
			if res.Trace[i] != want.Trace[i] {
				t.Fatalf("trace[%d] = %+v, State collected %+v", i, res.Trace[i], want.Trace[i])
			}
		}
		_ = run(t, p)
		for i := range want.Trace {
			if res.Trace[i] != want.Trace[i] {
				t.Fatalf("trace[%d] changed under a later Run: %+v, was %+v", i, res.Trace[i], want.Trace[i])
			}
		}
	}
}

func TestRunawayBounded(t *testing.T) {
	b := prog.NewBuilder("forever")
	b.Label("x")
	b.Br("x")
	b.Halt()
	if _, err := Run(b.MustBuild(), Options{MaxInstrs: 1000}); err == nil {
		t.Fatal("runaway program should error")
	}
}

func TestStackUse(t *testing.T) {
	b := prog.NewBuilder("stack")
	b.Subi(isa.SP, isa.SP, 16)
	b.Li(1, 123)
	b.Stw(1, isa.SP, 0)
	b.Li(1, 0)
	b.Ldw(0, isa.SP, 0)
	b.Addi(isa.SP, isa.SP, 16)
	b.Halt()
	res := run(t, b.MustBuild())
	if res.Checksum() != 123 {
		t.Errorf("stack round-trip = %d, want 123", res.Checksum())
	}
	if res.Regs[isa.SP] != prog.StackTop {
		t.Errorf("sp = %#x, want restored %#x", res.Regs[isa.SP], prog.StackTop)
	}
}

func TestMemoryWordByteConsistency(t *testing.T) {
	var m Memory
	m.StoreWord(100, 0x11223344)
	if m.LoadByte(100) != 0x44 || m.LoadByte(103) != 0x11 {
		t.Error("little-endian layout broken")
	}
	// Cross-page word (page size 4096).
	m.StoreWord(4094, 0xaabbccdd)
	if m.LoadWord(4094) != 0xaabbccdd {
		t.Errorf("cross-page word = %#x", m.LoadWord(4094))
	}
}

// Property: word write then read round-trips at any address, including
// page-straddling ones.
func TestMemoryRoundTripProperty(t *testing.T) {
	f := func(addr uint32, v uint32) bool {
		addr %= 1 << 20
		var m Memory
		m.StoreWord(addr, v)
		return m.LoadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the trace is well-formed — each Rec.Next equals the following
// Rec.Index, and the last record's Next is -1.
func TestTraceLinkageProperty(t *testing.T) {
	f := func(n uint8, seed uint8) bool {
		iters := int64(n%50) + 1
		b := prog.NewBuilder("p")
		b.Li(1, iters)
		b.Li(2, int64(seed))
		b.Label("loop")
		b.Add(2, 2, 1)
		b.Xori(2, 2, 0x5a)
		b.Subi(1, 1, 1)
		b.Bnez(1, "loop")
		b.Mov(0, 2)
		b.Halt()
		res, err := Run(b.MustBuild(), Options{CollectTrace: true})
		if err != nil {
			return false
		}
		for i := 0; i < len(res.Trace)-1; i++ {
			if res.Trace[i].Next != res.Trace[i+1].Index {
				return false
			}
		}
		return res.Trace[len(res.Trace)-1].Next == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: emulation is deterministic.
func TestDeterminismProperty(t *testing.T) {
	b := prog.NewBuilder("det")
	arr := b.Space(64)
	b.Li(1, arr)
	b.Li(2, 16)
	b.Label("loop")
	b.Mul(3, 2, 2)
	b.Stw(3, 1, 0)
	b.Ldw(4, 1, 0)
	b.Add(0, 0, 4)
	b.Addi(1, 1, 4)
	b.Subi(2, 2, 1)
	b.Bnez(2, "loop")
	b.Halt()
	p := b.MustBuild()
	r1, err1 := Run(p, Options{CollectTrace: true})
	r2, err2 := Run(p, Options{CollectTrace: true})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Checksum() != r2.Checksum() || r1.DynInstrs != r2.DynInstrs {
		t.Error("emulation is not deterministic")
	}
}
