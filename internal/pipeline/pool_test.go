package pipeline

import (
	"bytes"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/slack"
	"repro/internal/workload"
)

// TestMachineReuseDeterministic is the pooling oracle: repeated runs of
// the same scenario — where every run after the first draws a reused
// machine from the pool — must produce identical stats and byte-identical
// pipetraces. A divergence means reset missed a field or a stale slot
// value leaked through makeUop's trimmed re-initialization.
func TestMachineReuseDeterministic(t *testing.T) {
	w := workload.Find("media.dct8")
	if w == nil {
		t.Fatal("workload media.dct8 not found")
	}
	p, _, _, err := w.Build("small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	freq := make([]int64, p.NumInstrs())
	for _, r := range res.Trace {
		freq[r.Index]++
	}
	sel := minigraph.Select(p, minigraph.Enumerate(p, minigraph.DefaultLimits()),
		freq, minigraph.DefaultSelectConfig())

	for _, k := range []SchedKind{SchedEvent, SchedScan} {
		t.Run(k.String(), func(t *testing.T) {
			var first *Stats
			var firstTrace []byte
			// Sequential same-goroutine runs make sync.Pool reuse all but
			// certain; three repeats cover fresh → pooled → pooled-again.
			for i := 0; i < 3; i++ {
				var buf bytes.Buffer
				watch := &obs.Observer{Trace: obs.NewPipetrace(&buf)}
				st, err := runSched(p, res.Trace, Reduced(), MGConfig{Selection: sel}, nil, watch, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := watch.Trace.Flush(); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first, firstTrace = st, buf.Bytes()
					continue
				}
				if *st != *first {
					t.Errorf("run %d stats diverge from run 0:\n run0 %+v\n run%d %+v", i, first, i, st)
				}
				if !bytes.Equal(buf.Bytes(), firstTrace) {
					t.Errorf("run %d pipetrace diverges from run 0: first diff at byte %d",
						i, firstDiff(buf.Bytes(), firstTrace))
				}
			}
		})
	}
}

// A pooled machine must also replay identically across configurations that
// alternate (pool lookup is keyed by Config, so interleaving two configs
// exercises both pools and the per-config reset paths).
func TestMachineReuseAcrossConfigs(t *testing.T) {
	w := workload.Find("comm.crc32")
	if w == nil {
		t.Fatal("workload comm.crc32 not found")
	}
	p, _, _, err := w.Build("small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{Baseline(), Reduced()}
	var first [2]Stats
	for round := 0; round < 3; round++ {
		for ci, cfg := range configs {
			st, err := Run(p, res.Trace, cfg, MGConfig{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[ci] = *st
			} else if *st != first[ci] {
				t.Errorf("config %s round %d diverges:\n round0 %+v\n now    %+v",
					cfg.Name, round, first[ci], st)
			}
		}
	}
}

// TestMachineReuseAcrossPrograms: a pooled machine keeps its uop template
// table (and layout cache) from the last run, which may have simulated
// another program under another selection. Alternating two programs of
// different static size on one Config, every run — each under a freshly
// built Selection, as a sweep's tasks select anew — must match the same
// scenario on a fresh machine, stats and pipetrace bytes alike. A stale,
// undersized or unrefilled table shows up here.
func TestMachineReuseAcrossPrograms(t *testing.T) {
	type program struct {
		p   *prog.Program
		tr  []emu.Rec
		sel func() *minigraph.Selection
	}
	var progs []program
	for _, name := range []string{"intx.qsort", "comm.crc32"} {
		w := workload.Find(name)
		if w == nil {
			t.Fatalf("workload %s not found", name)
		}
		p, _, _, err := w.Build("small")
		if err != nil {
			t.Fatal(err)
		}
		res, err := emu.Run(p, emu.Options{CollectTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		freq := make([]int64, p.NumInstrs())
		for _, r := range res.Trace {
			freq[r.Index]++
		}
		cands := minigraph.Enumerate(p, minigraph.DefaultLimits())
		sel := func() *minigraph.Selection {
			return minigraph.Select(p, cands, freq, minigraph.DefaultSelectConfig())
		}
		if len(sel().Instances) == 0 {
			t.Fatalf("%s: empty selection", name)
		}
		progs = append(progs, program{p, res.Trace, sel})
	}
	if progs[0].p.NumInstrs() == progs[1].p.NumInstrs() {
		t.Fatal("the two programs must differ in static size")
	}
	scenarios := []struct {
		name string
		mg   func(*minigraph.Selection) MGConfig
	}{
		{"singleton", func(*minigraph.Selection) MGConfig { return MGConfig{} }},
		{"selection", func(s *minigraph.Selection) MGConfig { return MGConfig{Selection: s} }},
		{"disable-all", func(s *minigraph.Selection) MGConfig { return MGConfig{Selection: s, DisableAll: true} }},
		{"ideal-outlining", func(s *minigraph.Selection) MGConfig {
			return MGConfig{Selection: s, DisableAll: true, IdealOutlining: true}
		}},
	}
	cfg := Reduced()
	run := func(pr program, mg MGConfig, k SchedKind) (Stats, []byte) {
		var buf bytes.Buffer
		watch := &obs.Observer{Trace: obs.NewPipetrace(&buf)}
		st, err := runSched(pr.p, pr.tr, cfg, mg, nil, watch, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := watch.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return *st, buf.Bytes()
	}
	for _, k := range []SchedKind{SchedEvent, SchedScan} {
		t.Run(k.String(), func(t *testing.T) {
			type result struct {
				st    Stats
				trace []byte
			}
			// References: every scenario on a fresh machine (emptying the
			// Config's pool forces getMachine to build one).
			want := make([][]result, len(progs))
			for pi, pr := range progs {
				for _, sc := range scenarios {
					machinePools.Delete(cfg)
					st, tr := run(pr, sc.mg(pr.sel()), k)
					want[pi] = append(want[pi], result{st, tr})
				}
			}
			// Alternate the programs, so each pooled run follows one of the
			// other program, with a new Selection every run.
			for round := 0; round < 2; round++ {
				for si, sc := range scenarios {
					for pi, pr := range progs {
						st, tr := run(pr, sc.mg(pr.sel()), k)
						w := want[pi][si]
						if st != w.st {
							t.Errorf("%s %s round %d: stats diverge from a fresh machine:\n fresh  %+v\n pooled %+v",
								pr.p.Name, sc.name, round, w.st, st)
						}
						if !bytes.Equal(tr, w.trace) {
							t.Errorf("%s %s round %d: pipetrace diverges from a fresh machine at byte %d",
								pr.p.Name, sc.name, round, firstDiff(tr, w.trace))
						}
					}
				}
			}
		})
	}
}

// TestProfilingAllocsFlat: a warm, pooled profiling run recycles its uops
// and writes its profile records into the machine's retained buffer, so
// what it allocates does not grow with the trace — the whole trace costs
// no more allocations than a quarter of it.
func TestProfilingAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops pooled machines at random")
	}
	w := workload.Find("media.dct8")
	if w == nil {
		t.Fatal("workload media.dct8 not found")
	}
	p, _, _, err := w.Build("small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(p, emu.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	acc := slack.NewAccumulator(p.Name, p.NumInstrs())
	allocs := func(tr []emu.Rec) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(p, tr, Reduced(), MGConfig{}, acc); err != nil {
				t.Fatal(err)
			}
		})
	}
	full := allocs(res.Trace)
	quarter := allocs(res.Trace[:len(res.Trace)/4])
	t.Logf("allocs per warm profiling run: %v (whole trace), %v (quarter)", full, quarter)
	if full > quarter {
		t.Errorf("profiling allocations grow with the trace: %v for %d records, %v for %d",
			full, len(res.Trace), quarter, len(res.Trace)/4)
	}
	if full > maxWarmProfilingAllocs {
		t.Errorf("warm profiling run made %v allocations, want at most %d", full, maxWarmProfilingAllocs)
	}
}

// maxWarmProfilingAllocs bounds one warm profiling run's allocations (the
// returned Stats and per-run bookkeeping; none per uop or per record).
const maxWarmProfilingAllocs = 8
