package ledger

import (
	"fmt"
	"io"
	"sort"
)

// This file is the cross-run comparison layer: given the full history, pit
// two revisions against each other per series point and gate on
// regressions — the simulated-metrics analog of the benchjson ns/op gate.
// "Latest record wins" within a revision, so re-running a rev supersedes
// its earlier numbers instead of mixing them.

// Delta is one (workload, series, input) point measured at two revisions.
type Delta struct {
	Workload string
	Series   string
	Input    string
	A, B     Record // latest timing record at each rev, in history order

	// IPCPct is the relative IPC change B vs A (negative = regression);
	// WallPct the relative wall-time change (positive = slower); CPUPct
	// the relative CPU-time change (positive = more expensive, 0 when
	// either side lacks CPU accounting).
	IPCPct  float64
	WallPct float64
	CPUPct  float64

	// CrossHost flags records from different machines: IPC is still
	// comparable (simulated cycles are deterministic), wall time is not.
	CrossHost bool

	// Mixed flags a fidelity mismatch: one side is a sampled estimate and
	// the other an exact run (or both are estimates under different
	// sampling specs). Such deltas measure the estimator, not the code —
	// the gate skips them and the table calls them out.
	Mixed bool
}

// Compare pairs the latest timing record of every series point at revA
// with its counterpart at revB, sorted by workload then series. Records
// without timing data (Cycles == 0) and points present at only one rev
// are left out.
func Compare(recs []Record, revA, revB string) []Delta {
	latest := func(rev string) map[string]Record {
		m := make(map[string]Record)
		for _, r := range recs {
			if r.Rev == rev && r.Cycles > 0 && r.Error == "" {
				m[r.PointKey()] = r // later records overwrite earlier: latest wins
			}
		}
		return m
	}
	as, bs := latest(revA), latest(revB)
	var out []Delta
	for k, a := range as {
		b, ok := bs[k]
		if !ok {
			continue
		}
		d := Delta{
			Workload:  a.Workload,
			Series:    a.Series,
			Input:     a.Input,
			A:         a,
			B:         b,
			CrossHost: !a.Host.SameMachine(b.Host),
			Mixed:     a.Estimate != b.Estimate || a.Sample != b.Sample,
		}
		if a.IPC > 0 {
			d.IPCPct = (b.IPC - a.IPC) / a.IPC
		}
		if a.WallMS > 0 {
			d.WallPct = (b.WallMS - a.WallMS) / a.WallMS
		}
		if a.CPUMS > 0 && b.CPUMS > 0 {
			d.CPUPct = (b.CPUMS - a.CPUMS) / a.CPUMS
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if out[i].Series != out[j].Series {
			return out[i].Series < out[j].Series
		}
		return out[i].Input < out[j].Input
	})
	return out
}

// realWall reports whether a record's wall time measured actual
// simulation work (not a cache hit answered in microseconds). "nocache" is
// the uncached-sweep outcome older ledgers carry.
func realWall(r Record) bool {
	switch r.Cache {
	case "miss", "nocache", "traced", "run", "":
		return true
	}
	return false
}

// Gate returns the points that regressed beyond tolerance: an IPC drop
// worse than -ipcTol, a wall-time growth beyond wallTol when both records
// are uncached simulations on the same machine (cache hits and cross-host
// pairs carry no wall-time signal), or a CPU-time growth beyond cpuTol
// when both records carry CPU accounting. CPU time is robust to host load,
// and machines of the same class agree well enough that the CPU gate
// applies to cross-host pairs too — it is the preferred cost gate.
// Mixed-fidelity pairs (a sampled estimate against an exact run) are
// skipped entirely — their delta measures the estimator's error, not a
// code change. Tolerances are fractions (0.05 = 5%).
func Gate(deltas []Delta, ipcTol, wallTol, cpuTol float64) []string {
	var fails []string
	for _, d := range deltas {
		if d.Mixed {
			continue
		}
		point := fmt.Sprintf("%s/%s [%s]", d.Workload, d.Series, d.Input)
		if d.IPCPct < -ipcTol {
			fails = append(fails, fmt.Sprintf("%s: IPC %.4f -> %.4f (%+.1f%%)",
				point, d.A.IPC, d.B.IPC, 100*d.IPCPct))
		}
		if wallTol > 0 && !d.CrossHost && realWall(d.A) && realWall(d.B) && d.WallPct > wallTol {
			fails = append(fails, fmt.Sprintf("%s: wall %.0fms -> %.0fms (%+.1f%%)",
				point, d.A.WallMS, d.B.WallMS, 100*d.WallPct))
		}
		if cpuTol > 0 && realWall(d.A) && realWall(d.B) &&
			d.A.CPUMS > 0 && d.B.CPUMS > 0 && d.CPUPct > cpuTol {
			fails = append(fails, fmt.Sprintf("%s: cpu %.0fms -> %.0fms (%+.1f%%)",
				point, d.A.CPUMS, d.B.CPUMS, 100*d.CPUPct))
		}
	}
	return fails
}

// WriteCompareText renders the per-point delta table.
func WriteCompareText(w io.Writer, revA, revB string, deltas []Delta) error {
	if len(deltas) == 0 {
		_, err := fmt.Fprintf(w, "no common timing records for revs %s and %s\n", revA, revB)
		return err
	}
	if _, err := fmt.Fprintf(w, "%-18s %-26s %-6s %8s %8s %7s %9s %9s %8s %8s\n",
		"workload", "series", "input", "ipc@"+trunc(revA, 4), "ipc@"+trunc(revB, 4),
		"Δipc%", "wall@A ms", "wall@B ms", "Δwall%", "Δcpu%"); err != nil {
		return err
	}
	cross, mixed := false, false
	for _, d := range deltas {
		note := ""
		if d.CrossHost {
			note, cross = note+"  [cross-host]", true
		}
		if d.Mixed {
			note, mixed = note+"  [mixed-fidelity]", true
		}
		cpu := fmt.Sprintf("%8s", "–") // either side predates CPU accounting
		if d.A.CPUMS > 0 && d.B.CPUMS > 0 {
			cpu = fmt.Sprintf("%+7.1f%%", 100*d.CPUPct)
		}
		if _, err := fmt.Fprintf(w, "%-18s %-26s %-6s %8.4f %8.4f %+6.1f%% %9.1f %9.1f %+7.1f%% %s%s\n",
			d.Workload, d.Series, d.Input, d.A.IPC, d.B.IPC, 100*d.IPCPct,
			d.A.WallMS, d.B.WallMS, 100*d.WallPct, cpu, note); err != nil {
			return err
		}
	}
	if cross {
		if _, err := fmt.Fprintln(w, "note: [cross-host] points were recorded on different machines — wall-time deltas measure the hardware, IPC deltas remain valid"); err != nil {
			return err
		}
	}
	if mixed {
		if _, err := fmt.Fprintln(w, "warning: [mixed-fidelity] points pair a sampled estimate with an exact run (or two different sampling specs) — their deltas measure the estimator, not the code, and the regression gate skips them"); err != nil {
			return err
		}
	}
	return nil
}

// trunc shortens a revision for column headers.
func trunc(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
