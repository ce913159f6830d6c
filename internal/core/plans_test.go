package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/minigraph"
	"repro/internal/pipeline"
	"repro/internal/selector"
)

// planTuple is the test's own statement of what a representative plan
// depends on, kept apart from pipeline.RepPlanKey so that a key which drops
// one of these fields shows up as too few plan computations.
type planTuple struct {
	hier                       cache.HierConfig
	bp                         bpred.Config
	interval, window, clusters int
}

// sampledOutcome is one sampled run's result in comparable form.
type sampledOutcome struct {
	st  *pipeline.Stats
	rep pipeline.SampleReport
	err string
}

func outcomeOf(st *pipeline.Stats, rep pipeline.SampleReport, err error) sampledOutcome {
	o := sampledOutcome{st: st, rep: rep}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

type sampledRun struct {
	cfg    pipeline.Config
	sel    *selector.Selector
	chosen *minigraph.Selection
	spec   pipeline.SampleSpec
}

// TestBenchSampledPlans is the oracle for shared representative plans:
// every Bench.RunSampledReport, which takes its plan from the bench's plan
// cache, must equal a fresh pipeline.RunSampledReport, which builds its own,
// and the cache must compute exactly one plan per distinct planTuple among
// the runs that sample (runs of a trace that fits one interval need none) —
// serially, and for intx.gen07 also from four goroutines on a fresh bench.
// A plan run under another key or against another trace is an error.
func TestBenchSampledPlans(t *testing.T) {
	smallBP := pipeline.Reduced()
	smallBP.Name = "reduced-bp10"
	smallBP.Bpred.BimodalBits, smallBP.Bpred.GshareBits, smallBP.Bpred.ChooserBits = 10, 10, 10
	configs := []pipeline.Config{pipeline.Reduced(), pipeline.Baseline(), pipeline.Width8(), pipeline.SmallDMem(), smallBP}
	policies := []*selector.Selector{nil, selector.StructBounded()}
	rep := pipeline.SampleRepresentative
	specs := []pipeline.SampleSpec{
		{Mode: rep, Interval: 1000, Window: 1000},
		{Mode: rep, Interval: 1000, Window: 1000, Clusters: 4},
		{Mode: rep, Interval: 1000, Window: 500},
		// Workers is not in the key: this spec shares the first one's plan.
		{Mode: rep, Interval: 1000, Window: 1000, Workers: 2},
		// comm.ipchk's 4109-record trace fits one interval: it runs in full.
		{Mode: rep, Interval: 5000, Window: 1000},
	}
	benches := map[string]*Bench{}
	// intx.gen07's last window ends inside its pre-roll.
	for _, name := range []string{"intx.gen07", "comm.ipchk", "intx.hashprobe"} {
		b, err := PrepareByName(name, "large")
		if err != nil {
			t.Fatal(err)
		}
		benches[name] = b
		var runs []sampledRun
		for _, sel := range policies {
			var chosen *minigraph.Selection
			if sel != nil {
				chosen = b.Select(sel, nil)
			}
			for _, cfg := range configs {
				for _, spec := range specs {
					runs = append(runs, sampledRun{cfg, sel, chosen, spec})
				}
			}
		}
		want := make([]sampledOutcome, len(runs))
		plans := map[planTuple]bool{}
		planned := 0
		for i, r := range runs {
			want[i] = outcomeOf(pipeline.RunSampledReport(context.Background(), b.Prog, b.Trace, r.cfg, mgConfigFor(r.sel, r.chosen), r.spec))
			if !want[i].rep.Full {
				plans[planTuple{r.cfg.Hier, r.cfg.Bpred, r.spec.Interval, r.spec.Window, r.spec.Clusters}] = true
				planned++
			}
		}

		check := func(label string, b *Bench, workers int) {
			t.Helper()
			got := make([]sampledOutcome, len(runs))
			do := func(i int) {
				r := runs[i]
				got[i] = outcomeOf(b.RunSampledReport(r.cfg, r.sel, r.chosen, r.spec))
			}
			if workers <= 1 {
				for i := range runs {
					do(i)
				}
			} else {
				next := make(chan int)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range next {
							do(i)
						}
					}()
				}
				for i := range runs {
					next <- i
				}
				close(next)
				wg.Wait()
			}
			for i, r := range runs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s %s: %s/%s/%s: shared plan gave %+v %+v %q, fresh %+v %+v %q",
						name, label, r.cfg.Name, policyLabel(r.sel), r.spec.Summary(),
						got[i].st, got[i].rep, got[i].err, want[i].st, want[i].rep, want[i].err)
				}
			}
			c := b.plans.Stats()
			if c.Misses != int64(len(plans)) {
				t.Errorf("%s %s: %d plans computed, want one per distinct key: %d", name, label, c.Misses, len(plans))
			}
			if n := c.Hits + c.Shared + c.Misses; n != int64(planned) {
				t.Errorf("%s %s: %d plan lookups, want %d (one per representative run that samples)", name, label, n, planned)
			}
		}
		check("serial", b, 1)
		if name != "intx.gen07" {
			continue
		}
		fresh, err := PrepareByName(name, "large")
		if err != nil {
			t.Fatal(err)
		}
		check("4 goroutines", fresh, 4)
	}

	b, other := benches["intx.hashprobe"], benches["intx.gen07"]
	red := configs[0]
	spec := specs[0]
	pl, err := pipeline.NewRepPlan(b.Prog, b.Trace, red, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipeline.RunRepPlan(context.Background(), pl, other.Prog, other.Trace, red, pipeline.MGConfig{}, spec); err == nil {
		t.Error("plan ran against another trace")
	}
	noMode := spec
	noMode.Mode = 0
	for _, c := range []struct {
		cfg  pipeline.Config
		spec pipeline.SampleSpec
	}{{pipeline.SmallDMem(), spec}, {smallBP, spec}, {red, specs[1]}, {red, specs[2]}, {red, noMode}} {
		if _, _, err := pipeline.RunRepPlan(context.Background(), pl, b.Prog, b.Trace, c.cfg, pipeline.MGConfig{}, c.spec); err == nil {
			t.Errorf("plan for %s %s ran on %s %s", red.Name, spec.Summary(), c.cfg.Name, c.spec.Summary())
		}
	}
}

func policyLabel(sel *selector.Selector) string {
	if sel == nil {
		return "singleton"
	}
	return sel.Name()
}
