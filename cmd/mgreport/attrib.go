package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/workload"
)

// slackTolerance is the predicted-vs-observed agreement window in cycles.
// The profiler predicts per-static averages while the walk observes one
// run's mean, so exact agreement is not expected; a few cycles is "the
// profile would have steered the selector the same way".
const slackTolerance = 4.0

// attrib runs the cycle-loss attribution engine end-to-end for one
// workload: the series point (prepare, profile, select) with its timing
// run observed by an in-memory pipetrace, then the critical-path walk over
// that trace and a cross-check of the static slack profile against the
// observed slack. outBase, when non-empty, also writes <outBase>.json
// (full report) and <outBase>.csv (scoreboard).
func attrib(w io.Writer, workloadName, input, selName, cfgName, outBase string, top int) error {
	cfg, err := pipeline.ConfigByName(cfgName)
	if err != nil {
		return err
	}
	sel, err := selector.ByName(selName)
	if err != nil {
		return err
	}
	if sel == nil {
		return fmt.Errorf("-attribsel %q selects nothing; attribution needs a policy", selName)
	}
	wl := workload.Find(workloadName)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	sp := core.SeriesSpec{Cfg: cfg, Sel: sel}
	task := core.StartTask(workloadName, sel.Name()+" on "+cfg.Name)
	bench, err := core.PrepareSharedCtx(task.Ctx, wl, input)
	var pt core.Point
	var rep *critpath.Report
	if err == nil {
		pt, rep, err = walk(task.Ctx, bench, sp)
	}
	rec := ledger.Record{Tool: "mgreport", Sweep: "attrib", Input: input}
	if rep != nil {
		rec.Critpath = rep.BucketsByName()
	}
	if aerr := task.Finish(rec, bench, sp, nil, pt, err); aerr != nil {
		fmt.Fprintln(os.Stderr, "mgreport: ledger:", aerr)
	}
	if err != nil {
		return err
	}
	// The comparator reads the profile of cfg: the one the policy selected
	// with, when it needs one.
	prof, err := bench.Profile(cfg)
	if err != nil {
		return err
	}

	name := fmt.Sprintf("%s/%s, %s on %s", workloadName, input, sel.Name(), cfg.Name)
	if err := critpath.WriteText(w, name, rep, top); err != nil {
		return err
	}
	tmplOut := make(map[int]int)
	for _, inst := range pt.Selection.Instances {
		if inst.Cand.OutputIdx >= 0 {
			tmplOut[inst.Template] = inst.Cand.OutputIdx
		}
	}
	sum := critpath.CompareSlack(prof, rep, tmplOut, slackTolerance)
	if err := critpath.WriteCompareText(w, sum, top); err != nil {
		return err
	}

	if outBase != "" {
		f, err := os.Create(outBase + ".json")
		if err != nil {
			return err
		}
		if err := critpath.WriteJSON(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		f, err = os.Create(outBase + ".csv")
		if err != nil {
			return err
		}
		if err := critpath.WriteScoreboardCSV(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s.json and %s.csv\n", outBase, outBase)
	}
	return nil
}

// walk evaluates point sp on b with its timing run traced into memory, then
// walks the run's critical path.
func walk(ctx context.Context, b *core.Bench, sp core.SeriesSpec) (core.Point, *critpath.Report, error) {
	var buf bytes.Buffer
	watch := &obs.Observer{Trace: obs.NewBinaryPipetrace(&buf)}
	pt, err := core.EvalPoint(ctx, b, sp, nil, watch)
	if err != nil {
		return pt, nil, err
	}
	if err := watch.Trace.Flush(); err != nil {
		return pt, nil, err
	}
	uops, events, err := obs.ReadPipetrace(&buf)
	if err != nil {
		return pt, nil, err
	}
	rep, err := critpath.Analyze(uops, events, critpath.ParamsFor(sp.Cfg))
	return pt, rep, err
}
