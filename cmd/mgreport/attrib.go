package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
)

// slackTolerance is the predicted-vs-observed agreement window in cycles.
// The profiler predicts per-static averages while the walk observes one
// run's mean, so exact agreement is not expected; a few cycles is "the
// profile would have steered the selector the same way".
const slackTolerance = 4.0

// attrib runs the cycle-loss attribution engine end-to-end for one
// workload: prepare, profile, select under the policy, simulate with a
// pipetrace attached, walk the critical path, and cross-check the static
// slack profile against the observed slack. outBase, when non-empty, also
// writes <outBase>.json (full report) and <outBase>.csv (scoreboard).
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
	bench, err := core.PrepareByName(workloadName, input)
	if err != nil {
		return err
	}
	// The profile feeds both the selector (when the policy wants one) and
	// the predicted-vs-observed comparator.
	prof, err := bench.Profile(cfg)
	if err != nil {
		return err
	}
	chosen := bench.Select(sel, prof)

	t0 := time.Now()
	var buf bytes.Buffer
	watch := &obs.Observer{Trace: obs.NewBinaryPipetrace(&buf)}
	st, err := bench.RunObserved(cfg, sel, chosen, watch)
	if err != nil {
		return err
	}
	if err := watch.Trace.Flush(); err != nil {
		return err
	}
	uops, events, err := obs.ReadPipetrace(&buf)
	if err != nil {
		return err
	}
	rep, err := critpath.Analyze(uops, events, critpath.ParamsFor(cfg))
	if err != nil {
		return err
	}
	if aerr := core.AppendRecord(ledger.Record{Tool: "mgreport", Sweep: "attrib",
		Workload: workloadName, Series: sel.Name() + " on " + cfg.Name, Input: input,
		Key:   core.TaskKey(bench, core.SeriesSpec{Cfg: cfg, Sel: sel}, nil).Short(),
		Cache: "traced", Critpath: rep.BucketsByName()},
		time.Since(t0), metrics.Usage{}, st, nil, nil); aerr != nil {
		fmt.Fprintln(os.Stderr, "mgreport: ledger:", aerr)
	}

	name := fmt.Sprintf("%s/%s, %s on %s", workloadName, input, sel.Name(), cfg.Name)
	if err := critpath.WriteText(w, name, rep, top); err != nil {
		return err
	}
	tmplOut := make(map[int]int)
	for _, inst := range chosen.Instances {
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
