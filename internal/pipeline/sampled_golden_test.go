package pipeline_test

import (
	"flag"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/workload"
)

var updateSampled = flag.Bool("update-sampled", false, "rewrite testdata/sampled_rep_golden.tsv")

const sampledGoldenPath = "testdata/sampled_rep_golden.tsv"

// sampledGoldenSpec is the sampled-rep benchmark workload's spec.
var sampledGoldenSpec = pipeline.SampleSpec{Mode: pipeline.SampleRepresentative, Interval: 1000, Window: 1000}

// sampleWorkload runs representative sampling for one workload on the
// large input, on {reduced, baseline, 8-way} × {singleton, Struct-All,
// Struct-Bounded}, with workers sample workers, and returns one line per
// run.
func sampleWorkload(w *workload.Workload, workers int) ([]string, error) {
	b, err := core.Prepare(w, "large")
	if err != nil {
		return nil, err
	}
	spec := sampledGoldenSpec
	spec.Workers = workers
	var rows []string
	for _, cfg := range []pipeline.Config{pipeline.Reduced(), pipeline.Baseline(), pipeline.Width8()} {
		for _, sel := range []*selector.Selector{nil, selector.StructAll(), selector.StructBounded()} {
			policy := "singleton"
			var st *pipeline.Stats
			var rep pipeline.SampleReport
			if sel == nil {
				st, rep, err = b.RunSampledReport(cfg, nil, nil, spec)
			} else {
				policy = sel.Name()
				st, rep, err = b.RunSampledReport(cfg, sel, b.Select(sel, nil), spec)
			}
			key := w.Name + "\t" + cfg.Name + "\t" + policy
			if err != nil {
				rows = append(rows, key+"\terror\t"+err.Error())
				continue
			}
			rows = append(rows, fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t%t\t%d\t%d\t%d\t%d\t%s\t%s",
				key, st.Instrs, st.Cycles, st.Uops, st.Handles, st.EmbeddedInstrs, st.BranchMispredicts, st.Replays,
				rep.Mode, rep.Full, rep.Intervals, rep.Windows, rep.DetailInstrs, rep.WarmInstrs,
				strconv.FormatFloat(rep.SimulatedFrac, 'g', -1, 64), strconv.FormatFloat(rep.ErrBound, 'g', -1, 64)))
		}
	}
	return rows, nil
}

// TestSampledRepGolden is the standing oracle for representative sampling:
// every Stats field the estimate sets and the whole SampleReport, for every
// workload on the large input and every config × policy the sampled-rep
// benchmark runs, must match the recorded rows, with the windows simulated
// serially and by four workers alike. Regenerate with -update-sampled only
// for an intended change to what sampling estimates.
func TestSampledRepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("samples every workload on the large input")
	}
	sample := func(workers int) func(*workload.Workload) ([]string, error) {
		return func(w *workload.Workload) ([]string, error) { return sampleWorkload(w, workers) }
	}
	got := goldenRows(t, sample(0))
	if *updateSampled {
		writeGolden(t, sampledGoldenPath, "program\tconfig\tpolicy\tinstrs\tcycles\tuops\thandles\tembedded\tmispredicts\treplays"+
			"\tmode\tfull\tintervals\twindows\tdetail_instrs\twarm_instrs\tsimulated_frac\terr_bound", got)
		return
	}
	compareRows(t, "workers 0 vs golden", got, readGolden(t, sampledGoldenPath))
	compareRows(t, "workers 4 vs workers 0", goldenRows(t, sample(4)), got)
}
