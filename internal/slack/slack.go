// Package slack implements local-slack profiles (Fields et al., ISCA 2002),
// the profiling substrate of the paper's Slack-Profile selector.
//
// A profile records, per static instruction, averages over all profiled
// dynamic instances of: issue time and register-output ready time (both
// relative to the issue time of the first instruction of the enclosing
// basic block — the paper's fixed reference point), the ready times of each
// source operand (the inputs a mini-graph might wait on), the effective
// execution latency, and the local slack of the instruction's register,
// store and branch outputs.
//
// Local slack of a value is the number of cycles it could be delayed
// without delaying any consumer: min over consumers of (consumer issue time
// − value ready time). Store outputs are consumed only by loads they
// actually forward to; branch outputs are "consumed" immediately (slack 0)
// when mispredicted and never otherwise.
package slack

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// BigSlack is the slack assigned to values with no observed consumer (and
// to never-mispredicted branches): effectively "not critical".
const BigSlack = 64

// Profile holds per-static-instruction averages. Slices are indexed by
// static instruction index; entries with Count==0 carry zeros.
type Profile struct {
	Name  string  `json:"name"`
	Count []int64 `json:"count"`
	// Issue and Ready are relative to the issue time of the instruction's
	// basic-block head.
	Issue []float64 `json:"issue"`
	Ready []float64 `json:"ready"`
	// SrcReady[i][s] is the average ready time (relative to the BB head) of
	// source operand s of instruction i; NaN when the operand is absent or
	// always ready (e.g. the zero register).
	SrcReady [][2]float64 `json:"srcReady"`
	// ExecLat is the average observed execution latency.
	ExecLat []float64 `json:"execLat"`
	// RegSlack, StoreSlack, BranchSlack are average local slacks of each
	// output kind; NaN when the instruction has no such output or it was
	// never observed.
	RegSlack    []float64 `json:"regSlack"`
	StoreSlack  []float64 `json:"storeSlack"`
	BranchSlack []float64 `json:"branchSlack"`
	// GlobalRegSlack is the average *global* slack of the register output:
	// the delay the value tolerates without lengthening the whole
	// execution, computed by a reverse pass over the dataflow graph. The
	// paper's Section 4.3 argues local slack is the more useful selection
	// signal; this field exists to test that argument.
	GlobalRegSlack []float64 `json:"globalRegSlack"`
}

// Valid reports whether static instruction i was observed.
func (p *Profile) Valid(i int) bool {
	return i >= 0 && i < len(p.Count) && p.Count[i] > 0
}

// RegSlackAt returns the predicted register-output local slack of static
// instruction i, reporting ok=false when the instruction was never
// observed or has no register-output slack (NaN). It is the accessor the
// critical-path comparator (internal/critpath) validates against.
func (p *Profile) RegSlackAt(i int) (v float64, ok bool) {
	if !p.Valid(i) || i >= len(p.RegSlack) {
		return 0, false
	}
	v = p.RegSlack[i]
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// nanSentinel encodes NaN in JSON (which cannot represent NaN directly).
const nanSentinel = -1e300

func encodeNaNs(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if math.IsNaN(x) {
			out[i] = nanSentinel
		} else {
			out[i] = x
		}
	}
	return out
}

func decodeNaNs(xs []float64) []float64 {
	for i, x := range xs {
		if x == nanSentinel {
			xs[i] = math.NaN()
		}
	}
	return xs
}

// Save writes the profile as JSON, encoding NaN fields as a sentinel.
func (p *Profile) Save(w io.Writer) error {
	q := *p
	q.Issue = encodeNaNs(p.Issue)
	q.Ready = encodeNaNs(p.Ready)
	q.ExecLat = encodeNaNs(p.ExecLat)
	q.RegSlack = encodeNaNs(p.RegSlack)
	q.StoreSlack = encodeNaNs(p.StoreSlack)
	q.BranchSlack = encodeNaNs(p.BranchSlack)
	q.GlobalRegSlack = encodeNaNs(p.GlobalRegSlack)
	q.SrcReady = make([][2]float64, len(p.SrcReady))
	for i, sr := range p.SrcReady {
		for s, v := range sr {
			if math.IsNaN(v) {
				q.SrcReady[i][s] = nanSentinel
			} else {
				q.SrcReady[i][s] = v
			}
		}
	}
	return json.NewEncoder(w).Encode(&q)
}

// Load reads a profile written by Save. It rejects a profile whose
// per-instruction slices are not all as long as Count: consumers index
// them by static instruction wherever Count says one was observed.
func Load(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("slack: decoding profile: %w", err)
	}
	n := len(p.Count)
	for _, f := range []struct {
		name string
		len  int
	}{
		{"issue", len(p.Issue)}, {"ready", len(p.Ready)}, {"srcReady", len(p.SrcReady)},
		{"execLat", len(p.ExecLat)}, {"regSlack", len(p.RegSlack)}, {"storeSlack", len(p.StoreSlack)},
		{"branchSlack", len(p.BranchSlack)}, {"globalRegSlack", len(p.GlobalRegSlack)},
	} {
		if f.len != n {
			return nil, fmt.Errorf("slack: profile %q has %d %s entries for %d instructions", p.Name, f.len, f.name, n)
		}
	}
	p.Issue = decodeNaNs(p.Issue)
	p.Ready = decodeNaNs(p.Ready)
	p.ExecLat = decodeNaNs(p.ExecLat)
	p.RegSlack = decodeNaNs(p.RegSlack)
	p.StoreSlack = decodeNaNs(p.StoreSlack)
	p.BranchSlack = decodeNaNs(p.BranchSlack)
	p.GlobalRegSlack = decodeNaNs(p.GlobalRegSlack)
	for i := range p.SrcReady {
		for s, v := range p.SrcReady[i] {
			if v == nanSentinel {
				p.SrcReady[i][s] = math.NaN()
			}
		}
	}
	return &p, nil
}

// Observation is what the profiling pipeline reports for one dynamic
// instance of a static instruction. Times are relative to the instance's
// basic-block head issue. NaN marks absent fields.
type Observation struct {
	Issue, Ready         float64
	Src1Ready, Src2Ready float64
	ExecLat              float64
	RegSlack             float64
	StoreSlack           float64
	BranchSlack          float64
	GlobalRegSlack       float64
}

// NaN is the explicit "absent" marker for Observation fields.
func NaN() float64 { return math.NaN() }

// Accumulator builds a Profile from per-instance observations.
type Accumulator struct {
	name  string
	count []int64
	sums  struct {
		issue, ready                  []float64
		src1, src2                    []float64
		src1N, src2N                  []int64
		execLat                       []float64
		regSlack, storeSlack, brSlack []float64
		regN, storeN, brN             []int64
		globalSlack                   []float64
		globalN                       []int64
	}
}

// NewAccumulator creates an accumulator for a program with n static
// instructions.
func NewAccumulator(name string, n int) *Accumulator {
	a := &Accumulator{name: name, count: make([]int64, n)}
	a.sums.issue = make([]float64, n)
	a.sums.ready = make([]float64, n)
	a.sums.src1 = make([]float64, n)
	a.sums.src2 = make([]float64, n)
	a.sums.src1N = make([]int64, n)
	a.sums.src2N = make([]int64, n)
	a.sums.execLat = make([]float64, n)
	a.sums.regSlack = make([]float64, n)
	a.sums.storeSlack = make([]float64, n)
	a.sums.brSlack = make([]float64, n)
	a.sums.regN = make([]int64, n)
	a.sums.storeN = make([]int64, n)
	a.sums.brN = make([]int64, n)
	a.sums.globalSlack = make([]float64, n)
	a.sums.globalN = make([]int64, n)
	return a
}

// Add folds one dynamic instance of static instruction i into the profile.
func (a *Accumulator) Add(i int, obs Observation) {
	a.count[i]++
	a.sums.issue[i] += obs.Issue
	a.sums.ready[i] += obs.Ready
	a.sums.execLat[i] += obs.ExecLat
	if !math.IsNaN(obs.Src1Ready) {
		a.sums.src1[i] += obs.Src1Ready
		a.sums.src1N[i]++
	}
	if !math.IsNaN(obs.Src2Ready) {
		a.sums.src2[i] += obs.Src2Ready
		a.sums.src2N[i]++
	}
	if !math.IsNaN(obs.RegSlack) {
		a.sums.regSlack[i] += obs.RegSlack
		a.sums.regN[i]++
	}
	if !math.IsNaN(obs.StoreSlack) {
		a.sums.storeSlack[i] += obs.StoreSlack
		a.sums.storeN[i]++
	}
	if !math.IsNaN(obs.BranchSlack) {
		a.sums.brSlack[i] += obs.BranchSlack
		a.sums.brN[i]++
	}
	if !math.IsNaN(obs.GlobalRegSlack) {
		a.sums.globalSlack[i] += obs.GlobalRegSlack
		a.sums.globalN[i]++
	}
}

// AddRegSlack folds the register-output local and global slack of one
// dynamic instance of static instruction i that Add counted with NaN
// register slacks. A profiler whose register slacks settle only after the
// rest of the observation (late consumers, a global reverse pass) calls it
// in the same instance order as Add, which keeps every sum identical to
// passing the slacks to Add.
func (a *Accumulator) AddRegSlack(i int, local, global float64) {
	a.sums.regSlack[i] += local
	a.sums.regN[i]++
	a.sums.globalSlack[i] += global
	a.sums.globalN[i]++
}

// Profile finalizes the averages.
func (a *Accumulator) Profile() *Profile {
	n := len(a.count)
	p := &Profile{
		Name:           a.name,
		Count:          append([]int64(nil), a.count...),
		Issue:          make([]float64, n),
		Ready:          make([]float64, n),
		SrcReady:       make([][2]float64, n),
		ExecLat:        make([]float64, n),
		RegSlack:       make([]float64, n),
		StoreSlack:     make([]float64, n),
		BranchSlack:    make([]float64, n),
		GlobalRegSlack: make([]float64, n),
	}
	div := func(sum float64, c int64) float64 {
		if c == 0 {
			return math.NaN()
		}
		return sum / float64(c)
	}
	for i := 0; i < n; i++ {
		c := a.count[i]
		p.Issue[i] = div(a.sums.issue[i], c)
		p.Ready[i] = div(a.sums.ready[i], c)
		p.ExecLat[i] = div(a.sums.execLat[i], c)
		p.SrcReady[i][0] = div(a.sums.src1[i], a.sums.src1N[i])
		p.SrcReady[i][1] = div(a.sums.src2[i], a.sums.src2N[i])
		p.RegSlack[i] = div(a.sums.regSlack[i], a.sums.regN[i])
		p.StoreSlack[i] = div(a.sums.storeSlack[i], a.sums.storeN[i])
		p.BranchSlack[i] = div(a.sums.brSlack[i], a.sums.brN[i])
		p.GlobalRegSlack[i] = div(a.sums.globalSlack[i], a.sums.globalN[i])
	}
	return p
}
