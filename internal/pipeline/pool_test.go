package pipeline

import (
	"bytes"
	"testing"

	"repro/internal/emu"
	"repro/internal/minigraph"
	"repro/internal/obs"
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
