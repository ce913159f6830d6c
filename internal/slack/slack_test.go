package slack

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorAverages(t *testing.T) {
	a := NewAccumulator("p", 3)
	a.Add(1, Observation{Issue: 2, Ready: 4, ExecLat: 1, Src1Ready: 1, Src2Ready: NaN(), RegSlack: 3, StoreSlack: NaN(), BranchSlack: NaN()})
	a.Add(1, Observation{Issue: 4, Ready: 6, ExecLat: 3, Src1Ready: 3, Src2Ready: NaN(), RegSlack: 5, StoreSlack: NaN(), BranchSlack: NaN()})
	p := a.Profile()
	if p.Count[1] != 2 {
		t.Fatalf("count = %d, want 2", p.Count[1])
	}
	if p.Issue[1] != 3 || p.Ready[1] != 5 || p.ExecLat[1] != 2 {
		t.Errorf("issue/ready/lat = %v/%v/%v, want 3/5/2", p.Issue[1], p.Ready[1], p.ExecLat[1])
	}
	if p.SrcReady[1][0] != 2 {
		t.Errorf("src1 ready = %v, want 2", p.SrcReady[1][0])
	}
	if !math.IsNaN(p.SrcReady[1][1]) {
		t.Errorf("src2 ready = %v, want NaN", p.SrcReady[1][1])
	}
	if p.RegSlack[1] != 4 {
		t.Errorf("regSlack = %v, want 4", p.RegSlack[1])
	}
	if !math.IsNaN(p.StoreSlack[1]) || !math.IsNaN(p.BranchSlack[1]) {
		t.Error("unobserved slacks should be NaN")
	}
}

func TestUnobservedInstr(t *testing.T) {
	a := NewAccumulator("p", 2)
	p := a.Profile()
	if p.Valid(0) || p.Valid(1) {
		t.Error("nothing observed: Valid must be false")
	}
	if p.Valid(-1) || p.Valid(2) {
		t.Error("out-of-range Valid must be false")
	}
	if !math.IsNaN(p.Issue[0]) {
		t.Error("unobserved issue should be NaN")
	}
}

func TestPartialObservations(t *testing.T) {
	// Mixed instances: slack observed on only some instances.
	a := NewAccumulator("p", 1)
	a.Add(0, Observation{Issue: 1, Ready: 2, ExecLat: 1, Src1Ready: NaN(), Src2Ready: NaN(), RegSlack: 10, StoreSlack: NaN(), BranchSlack: NaN()})
	a.Add(0, Observation{Issue: 1, Ready: 2, ExecLat: 1, Src1Ready: NaN(), Src2Ready: NaN(), RegSlack: NaN(), StoreSlack: NaN(), BranchSlack: NaN()})
	p := a.Profile()
	if p.RegSlack[0] != 10 {
		t.Errorf("regSlack = %v, want 10 (NaN instances excluded)", p.RegSlack[0])
	}
	if p.Count[0] != 2 {
		t.Errorf("count = %d, want 2", p.Count[0])
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := NewAccumulator("rt", 2)
	a.Add(0, Observation{Issue: 1.5, Ready: 3.25, ExecLat: 2, Src1Ready: 0.5, Src2Ready: NaN(), RegSlack: 7, StoreSlack: NaN(), BranchSlack: 0})
	p := a.Profile()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if q.Name != "rt" || q.Count[0] != 1 {
		t.Error("metadata lost")
	}
	if q.Issue[0] != 1.5 || q.Ready[0] != 3.25 || q.RegSlack[0] != 7 {
		t.Error("values lost")
	}
	if !math.IsNaN(q.SrcReady[0][1]) || !math.IsNaN(q.StoreSlack[0]) {
		t.Error("NaN fields must round-trip")
	}
	if !math.IsNaN(q.Issue[1]) {
		t.Error("unobserved instr must stay NaN after round-trip")
	}
	if q.BranchSlack[0] != 0 {
		t.Errorf("branch slack = %v, want 0", q.BranchSlack[0])
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{nope")); err == nil {
		t.Error("garbage input should fail to load")
	}
}

// savedProfile is a small observed profile's Save bytes.
func savedProfile(t testing.TB) []byte {
	a := NewAccumulator("p", 3)
	a.Add(0, Observation{Issue: 1, Ready: 2, ExecLat: 1, Src1Ready: 0, Src2Ready: NaN(), RegSlack: 3, StoreSlack: NaN(), BranchSlack: NaN(), GlobalRegSlack: 5})
	a.Add(2, Observation{Issue: 2, Ready: 2, ExecLat: 0, Src1Ready: 1, Src2Ready: 1, RegSlack: NaN(), StoreSlack: 4, BranchSlack: 0, GlobalRegSlack: NaN()})
	var buf bytes.Buffer
	if err := a.Profile().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// truncatedProfiles returns saved's bytes once per per-instruction field,
// with that field one entry short.
func truncatedProfiles(t testing.TB, saved []byte) map[string][]byte {
	out := map[string][]byte{}
	for _, field := range []string{"count", "issue", "ready", "srcReady", "execLat",
		"regSlack", "storeSlack", "branchSlack", "globalRegSlack"} {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(saved, &m); err != nil {
			t.Fatal(err)
		}
		var xs []json.RawMessage
		if err := json.Unmarshal(m[field], &xs); err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		b, err := json.Marshal(xs[:len(xs)-1])
		if err != nil {
			t.Fatal(err)
		}
		m[field] = b
		if out[field], err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLoadRejectsTruncated: a profile whose per-instruction slices
// disagree in length with Count is an error, not a later index panic.
func TestLoadRejectsTruncated(t *testing.T) {
	saved := savedProfile(t)
	if _, err := Load(bytes.NewReader(saved)); err != nil {
		t.Fatalf("intact profile: %v", err)
	}
	for field, data := range truncatedProfiles(t, saved) {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("profile with a short %s loaded without error", field)
		}
	}
}

// FuzzLoad: Load returns an error or a profile every field of which can
// be read at every instruction Count covers, and that round-trips through
// Save. It never panics.
func FuzzLoad(f *testing.F) {
	saved := savedProfile(f)
	f.Add(saved)
	for _, data := range truncatedProfiles(f, saved) {
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","count":[1],"srcReady":[[1,2]]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte("{nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range p.Count {
			_ = p.Valid(i)
			_, _ = p.RegSlackAt(i)
			_ = p.Issue[i] + p.Ready[i] + p.SrcReady[i][0] + p.SrcReady[i][1] + p.ExecLat[i] +
				p.RegSlack[i] + p.StoreSlack[i] + p.BranchSlack[i] + p.GlobalRegSlack[i]
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("accepted profile fails to save: %v", err)
		}
		q, err := Load(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted profile fails: %v", err)
		}
		if len(q.Count) != len(p.Count) {
			t.Fatal("round trip changed the instruction count")
		}
	})
}

// Property: averaging k identical observations yields the observation.
func TestAverageIdentityProperty(t *testing.T) {
	f := func(v float64, k uint8) bool {
		if math.IsNaN(v) || math.Abs(v) > 1e300 {
			return true // summation would overflow; out of scope
		}
		n := int(k%10) + 1
		a := NewAccumulator("p", 1)
		for i := 0; i < n; i++ {
			a.Add(0, Observation{Issue: v, Ready: v, ExecLat: v, Src1Ready: v, Src2Ready: v, RegSlack: v, StoreSlack: v, BranchSlack: v})
		}
		p := a.Profile()
		eq := func(x float64) bool { return math.Abs(x-v) < 1e-9*math.Max(1, math.Abs(v)) }
		return eq(p.Issue[0]) && eq(p.Ready[0]) && eq(p.RegSlack[0]) && eq(p.SrcReady[0][0])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Save/Load round-trips arbitrary finite observations.
func TestSaveLoadProperty(t *testing.T) {
	f := func(issue, ready, slackV float64) bool {
		if math.IsNaN(issue) || math.IsInf(issue, 0) || issue == nanSentinel ||
			math.IsNaN(ready) || math.IsInf(ready, 0) || ready == nanSentinel ||
			math.IsNaN(slackV) || math.IsInf(slackV, 0) || slackV == nanSentinel {
			return true
		}
		a := NewAccumulator("p", 1)
		a.Add(0, Observation{Issue: issue, Ready: ready, ExecLat: 1, Src1Ready: NaN(), Src2Ready: NaN(), RegSlack: slackV, StoreSlack: NaN(), BranchSlack: NaN()})
		p := a.Profile()
		var buf bytes.Buffer
		if p.Save(&buf) != nil {
			return false
		}
		q, err := Load(&buf)
		if err != nil {
			return false
		}
		return q.Issue[0] == issue && q.Ready[0] == ready && q.RegSlack[0] == slackV
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
