package core

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/selector"
	"repro/internal/workload"
)

// driverPoint evaluates point sp on comm.crc32's small input the way the
// driver commands do: one task, the bench prepared under it, the point,
// and Finish with the point's record.
func driverPoint(t *testing.T, sp SeriesSpec, sample *pipeline.SampleSpec, watch *obs.Observer) {
	t.Helper()
	task := StartTask("comm.crc32", sp.Label)
	b, err := PrepareSharedCtx(task.Ctx, workload.Find("comm.crc32"), "small")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := EvalPoint(task.Ctx, b, sp, sample, watch)
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Finish(ledger.Record{Tool: "driver", Input: "small"}, b, sp, sample, pt, nil); err != nil {
		t.Fatal(err)
	}
}

// recordOf runs f, cold, with a fresh run ledger installed and returns the
// one record f appended.
func recordOf(t *testing.T, f func()) ledger.Record {
	t.Helper()
	ResetCaches()
	l, err := ledger.Open(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	SetLedger(l)
	defer SetLedger(nil)
	f()
	recs, _, err := ledger.Read(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d ledger records, want 1", len(recs))
	}
	return recs[0]
}

// pointFields is the part of a record that describes the point and its
// run, not the tool or the measurement.
func pointFields(r ledger.Record) ledger.Record {
	return ledger.Record{Key: r.Key, Workload: r.Workload, Input: r.Input,
		Cycles: r.Cycles, Instrs: r.Instrs, Uops: r.Uops, IPC: r.IPC, UPC: r.UPC,
		Coverage: r.Coverage, Estimate: r.Estimate, Sample: r.Sample}
}

// TestDriverRecordMatchesSweep checks that a driver's point and a sweep
// task for the same point append the same record: the same key, and the
// same run, exact or sampled.
func TestDriverRecordMatchesSweep(t *testing.T) {
	red := pipeline.Reduced()
	for _, sample := range []*pipeline.SampleSpec{
		nil,
		{Interval: 1000, Window: 1000, Mode: pipeline.SampleRepresentative},
	} {
		for _, sp := range []SeriesSpec{
			{Label: "no mini-graphs", Cfg: red},
			{Label: "Slack-Profile", Cfg: red, Sel: selector.SlackProfile()},
		} {
			name := fmt.Sprintf("%s sampled=%v", sp.Label, sample != nil)
			drv := recordOf(t, func() { driverPoint(t, sp, sample, nil) })
			sw := recordOf(t, func() {
				opts := Options{Input: "small", Workloads: []string{"comm.crc32"}, Workers: 1, Sample: sample}
				if _, err := RunSweep("driver vs sweep", opts, []SeriesSpec{sp}); err != nil {
					t.Fatal(err)
				}
			})
			if drv.Key == "" || drv.Cycles == 0 {
				t.Errorf("%s: driver record has no key or run: %+v", name, drv)
			}
			if got, want := pointFields(drv), pointFields(sw); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: driver record\n%+v\nsweep task record\n%+v", name, got, want)
			}
		}
	}
}

// TestDriverSpans checks the span tree of a driver's point, exact, sampled
// or observed: one task span, with prepare, profile (when the policy needs
// one), select (when there is a policy) and simulate beneath it, and every
// span in the trace beneath it, so the export is a valid Chrome trace.
func TestDriverSpans(t *testing.T) {
	red := pipeline.Reduced()
	rep := &pipeline.SampleSpec{Interval: 1000, Window: 1000, Mode: pipeline.SampleRepresentative, Workers: 2}
	for _, c := range []struct {
		sel      *selector.Selector
		sample   *pipeline.SampleSpec
		observed bool
	}{
		{nil, nil, false}, {selector.StructAll(), nil, false}, {selector.SlackProfile(), nil, false},
		{selector.SlackProfile(), rep, false}, {selector.SlackProfile(), nil, true},
	} {
		sp := SeriesSpec{Label: "singleton", Cfg: red, Sel: c.sel}
		if c.sel != nil {
			sp.Label = c.sel.Name()
		}
		name := fmt.Sprintf("%s sampled=%v observed=%v", sp.Label, c.sample != nil, c.observed)
		var watch *obs.Observer
		if c.observed {
			watch = &obs.Observer{Trace: obs.NewBinaryPipetrace(io.Discard)}
		}
		ResetCaches()
		tr := metrics.NewTracer()
		metrics.InstallTracer(tr)
		driverPoint(t, sp, c.sample, watch)
		metrics.InstallTracer(nil)
		spans := tr.Spans()

		byID := make(map[int64]metrics.SpanRecord, len(spans))
		var tasks []metrics.SpanRecord
		for _, s := range spans {
			byID[s.ID] = s
			if s.Name == "task" {
				tasks = append(tasks, s)
			}
		}
		if len(tasks) != 1 {
			t.Fatalf("%s: %d task spans, want 1", name, len(tasks))
		}
		under := map[string]int{}
		for _, s := range spans {
			if s.ID == tasks[0].ID {
				continue
			}
			p := s
			for p.Parent != 0 && p.Parent != tasks[0].ID {
				p = byID[p.Parent]
			}
			if p.Parent != tasks[0].ID {
				t.Errorf("%s: span %s is not beneath the task span", name, s.Name)
			}
			under[s.Name]++
		}
		want := map[string]bool{"prepare": true, "simulate": true,
			"select": c.sel != nil, "profile": c.sel != nil && c.sel.NeedsProfile()}
		for n, w := range want {
			if got := under[n] == 1; got != w {
				t.Errorf("%s: %d %s spans beneath the task, want %v", name, under[n], n, w)
			}
		}
		if err := validChromeTrace(spans); err != nil {
			t.Errorf("%s: trace invalid: %v", name, err)
		}
	}
}
