GO ?= go

.PHONY: ci vet fmt build test race obs-smoke critpath-smoke sched-smoke sched-soa metrics-smoke ledger-smoke selfprof-smoke nocache-smoke sampling-accuracy bench benchjson profile report

## ci: the pre-merge check — vet, gofmt, build, full tests, race-enabled
## cache and pipeline tests, the scheduler differential, the SoA/pooling
## determinism smoke, the sampling accuracy gate, and end-to-end
## observability, attribution, metrics/tracing, run-ledger and
## self-profiling smoke tests. Documented in README.md; run before every
## merge.
ci: vet fmt build test race sched-smoke sched-soa sampling-accuracy obs-smoke critpath-smoke metrics-smoke ledger-smoke selfprof-smoke nocache-smoke

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; fail (and show them) if any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The cache layer and the pipeline's recycling are the concurrency-  and
# aliasing-sensitive parts; run their tests under the race detector. The
# critpath integration tests ride along: they drive observed pipeline runs.
# The scheduler differential dominates this target; give it headroom
# beyond the default 10m — the race detector slows it an order of
# magnitude on loaded machines. The pipeline package runs alone, ahead of
# the others: beside internal/core it took 1,325 s of its 1,500 s on a
# two-vCPU host, and about 1,010 s alone.
race:
	$(GO) test -race -timeout 25m ./internal/pipeline
	$(GO) test -race -timeout 25m ./internal/core ./internal/simcache ./internal/critpath ./internal/ledger ./internal/metrics

# End-to-end observability: one observed run writes a binary pipetrace and
# an interval file. The trace and its mgtrace -tojsonl conversion must
# render and attribute identically (bar the file name heading the
# attribution); the intervals must summarize; a cycle window must render
# and attribute; and the debug server's route test must pass.
obs-smoke:
	@dir=$$(mktemp -d); mgt=$$dir/mgtrace; \
	t=$$dir/comm.crc32_small_reduced-3way_Slack-Dynamic; b=$$t.pipetrace.bin; j=$$t.pipetrace.jsonl; \
	$(GO) build -o $$mgt ./cmd/mgtrace && \
	$(GO) run ./cmd/mgsim -workload comm.crc32 -input small -config reduced \
		-selector Slack-Dynamic -pipetrace -intervals 500 -tracedir $$dir >/dev/null 2>&1 && \
	$$mgt -tojsonl $$b > $$j && \
	$$mgt -trace $$b -count 16 > $$dir/bin.render && $$mgt -trace $$j -count 16 > $$dir/jsonl.render && \
	cmp $$dir/bin.render $$dir/jsonl.render && \
	$$mgt -critpath $$b -config reduced > $$dir/bin.crit && $$mgt -critpath $$j -config reduced > $$dir/jsonl.crit && \
	grep -q serialization $$dir/bin.crit && \
	sed 1d $$dir/bin.crit > $$dir/bin.body && sed 1d $$dir/jsonl.crit > $$dir/jsonl.body && \
	cmp $$dir/bin.body $$dir/jsonl.body && \
	$$mgt -summary $$t.intervals.jsonl >/dev/null && \
	$$mgt -trace $$b -window 2000:4000 -count 100000 >/dev/null && \
	$$mgt -critpath $$b -config reduced -window 2000:4000 >/dev/null && \
	$(GO) test -run 'TestServeDebug' -count=1 ./internal/obs >/dev/null || \
		{ echo "obs-smoke FAILED"; rm -rf $$dir; exit 1; }; \
	rm -rf $$dir && echo "obs-smoke ok"

# Scheduler differential: the event-driven scheduler must match the scan
# reference bit for bit (Stats, pipetrace bytes, interval samples) on every
# workload across the singleton / mini-graph / Slack-Dynamic configurations.
sched-smoke:
	$(GO) test -run 'TestSchedulerDifferential' -count=1 ./internal/pipeline
	@echo "sched-smoke ok"

# SoA/pooling determinism: pooled-machine reuse and the sampled-windows
# estimator must replay bit-identically under both schedulers and any
# worker count — the invariants the structure-of-arrays hot loop and the
# machine pool lean on.
sched-soa:
	$(GO) test -run 'TestMachineReuse|TestSampledDifferential|TestUop|TestRecycl' -count=1 ./internal/pipeline
	@echo "sched-soa ok"

# Cycle-loss attribution end to end on the committed tiny trace: the walk
# must succeed and report the trace's known 2-cycle serialization bucket.
critpath-smoke:
	@out=$$($(GO) run ./cmd/mgtrace -critpath cmd/mgtrace/testdata/tiny.pipetrace.jsonl -config reduced -top 3) && \
	echo "$$out" | grep -q "serialization *2 *22.2%" && echo "critpath-smoke ok" || \
	{ echo "critpath-smoke FAILED:"; echo "$$out"; exit 1; }

# End-to-end metrics/tracing: run one tiny sweep with -trace-out, then
# validate the Chrome trace it wrote (matched B/E pairs, monotonic
# timestamps) and print nothing on success. The second sweep samples
# (representative windows) on two workers: each sampled run must open its
# spans under its own task, or concurrent runs interleave on one trace row
# and the file is invalid. The third runs the design-choice ablations on
# two workers, which must trace like any other sweep. The driver commands
# evaluate their point the way a sweep task does: mgsim, a sampled
# mgselect and mgreport -attrib must each write a valid trace with a
# simulate span. Last, the debug server must not change a run: the tiny
# sweep with -httpaddr prints the same report as without it, bar the
# timing line.
metrics-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/mgsim -workload comm.crc32 -input small -config reduced -selector Slack-Profile \
		-trace-out $$dir/mgsim.trace >/dev/null 2>&1 && \
	$(GO) run ./cmd/mgselect -workload comm.crc32 -input small -selector Slack-Profile -sample-mode rep \
		-trace-out $$dir/mgselect.trace >/dev/null 2>&1 && \
	$(GO) run ./cmd/mgreport -attrib comm.crc32 -input small -trace-out $$dir/attrib.trace >/dev/null 2>&1 || \
		{ echo "metrics-smoke FAILED: a driver run failed"; rm -rf $$dir; exit 1; }; \
	for t in mgsim mgselect attrib; do \
		$(GO) run ./cmd/mgtrace -spans $$dir/$$t.trace | grep -q '^simulate ' || \
			{ echo "metrics-smoke FAILED: $$t trace invalid or without a simulate span"; rm -rf $$dir; exit 1; }; \
	done; \
	$(GO) run ./cmd/mgreport -exp fig1 -only comm.crc32 -input small -plots=false \
		-trace-out $$dir/sweep.trace >/dev/null && \
	$(GO) run ./cmd/mgtrace -spans $$dir/sweep.trace >/dev/null && \
	$(GO) run ./cmd/mgreport -exp fig6 -input large -sample-mode rep -workers 2 -plots=false \
		-only comm.gen06,intx.hashprobe,media.fir -trace-out $$dir/sampled.trace >/dev/null && \
	$(GO) run ./cmd/mgtrace -spans $$dir/sampled.trace >/dev/null && \
	$(GO) run ./cmd/mgreport -exp ablation -input small -only comm.crc32,comm.gen01 -workers 2 \
		-plots=false -trace-out $$dir/ablation.trace >/dev/null && \
	$(GO) run ./cmd/mgtrace -spans $$dir/ablation.trace >/dev/null && \
	fig1="-exp fig1 -only comm.crc32 -input small -plots=false" && \
	$(GO) run ./cmd/mgreport $$fig1 > $$dir/plain 2>/dev/null && \
	$(GO) run ./cmd/mgreport $$fig1 -httpaddr 127.0.0.1:0 > $$dir/served 2>$$dir/served.err && \
	grep -q 'debug server on http://' $$dir/served.err && \
	sed -i '/completed in/d' $$dir/plain $$dir/served && cmp $$dir/plain $$dir/served || \
		{ echo "metrics-smoke FAILED"; rm -rf $$dir; exit 1; }; \
	rm -rf $$dir && echo "metrics-smoke ok"

# Run-ledger end to end: the same tiny sweep twice with -ledger must
# append (never clobber) — the record count doubles across the restart —
# and comparing the recorded rev against itself must gate clean. mgsim,
# mgselect and mgreport -attrib then append their Slack-Profile point on
# the reduced machine: every record of that point, the sweep's included,
# must carry the same key, and the attribution record its CPU time. The
# Figure 8 limit study is a sweep too: on comm.crc32 (4 candidates) it must
# record each of its 16 subsets, and its two-worker trace must pass
# mgtrace -spans.
ledger-smoke:
	@dir=$$(mktemp -d); \
	run() { $(GO) run ./cmd/mgreport -exp fig1 -only comm.crc32 -input small \
		-plots=false -ledger $$dir/led -ledger-rev ci >/dev/null; }; \
	run && n1=$$(grep -c '^v1 ' $$dir/led/ledger.jsonl) && \
	run && n2=$$(grep -c '^v1 ' $$dir/led/ledger.jsonl) && \
	[ "$$n2" -eq $$((2 * n1)) ] || { echo "ledger-smoke FAILED: $$n1 then $$n2 records (want double)"; exit 1; }; \
	$(GO) run ./cmd/mgstat -ledger $$dir/led -compare ci,ci -gate 5 >/dev/null || \
		{ echo "ledger-smoke FAILED: self-compare did not gate clean"; exit 1; }; \
	led="-ledger $$dir/led -ledger-rev ci"; \
	$(GO) run ./cmd/mgsim -workload comm.crc32 -input small -config reduced -selector Slack-Profile $$led >/dev/null 2>&1 && \
	$(GO) run ./cmd/mgselect -workload comm.crc32 -input small -selector Slack-Profile $$led >/dev/null 2>&1 && \
	$(GO) run ./cmd/mgreport -attrib comm.crc32 -input small $$led >/dev/null 2>&1 || \
		{ echo "ledger-smoke FAILED: a driver run failed"; exit 1; }; \
	sp=$$(grep Slack-Profile $$dir/led/ledger.jsonl); \
	[ $$(echo "$$sp" | grep -c '"key":"') -eq 5 ] && \
	[ $$(echo "$$sp" | grep -o '"key":"[0-9a-f]*"' | sort -u | wc -l) -eq 1 ] || \
		{ echo "ledger-smoke FAILED: the 5 Slack-Profile records do not all carry one key"; echo "$$sp"; exit 1; }; \
	grep '"sweep":"attrib"' $$dir/led/ledger.jsonl | grep -q '"cpu_ms":' || \
		{ echo "ledger-smoke FAILED: the attribution record has no cpu_ms"; exit 1; }; \
	$(GO) run ./cmd/mgreport -exp fig8 -input small -workload comm.crc32 -workers 2 \
		-ledger $$dir/fig8 -trace-out $$dir/fig8.trace >/dev/null 2>&1 && \
	n=$$(grep -c '^v1 ' $$dir/fig8/ledger.jsonl) && [ "$$n" -eq 16 ] || \
		{ echo "ledger-smoke FAILED: fig8 appended $$n records (want one per subset: 16)"; exit 1; }; \
	$(GO) run ./cmd/mgtrace -spans $$dir/fig8.trace >/dev/null || \
		{ echo "ledger-smoke FAILED: fig8 trace rejected by mgtrace -spans"; exit 1; }; \
	rm -rf $$dir && echo "ledger-smoke ok"

# Self-profiling end to end: a ledgered sweep must record per-task CPU
# time (cpu_ms on every fresh task record), print the one-line resource
# summary on stderr, gate clean against itself under -gate-cpu, and the
# dashboard's empty and one-record tests must pass.
selfprof-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/mgreport -exp fig1 -only comm.crc32 -input small \
		-plots=false -ledger $$dir/led -ledger-rev ci >/dev/null 2>$$dir/err && \
	grep -q '"cpu_ms":' $$dir/led/ledger.jsonl || \
		{ echo "selfprof-smoke FAILED: no cpu_ms in ledger records"; exit 1; }; \
	grep -q 'resources: wall' $$dir/err || \
		{ echo "selfprof-smoke FAILED: no resource summary on stderr"; cat $$dir/err; exit 1; }; \
	$(GO) run ./cmd/mgstat -ledger $$dir/led -compare ci,ci -gate-cpu 5 >/dev/null || \
		{ echo "selfprof-smoke FAILED: self-compare did not gate clean under -gate-cpu"; exit 1; }; \
	$(GO) test -run 'TestDashEmptyLedger|TestDashSingleRecord' -count=1 ./internal/ledger >/dev/null && \
	rm -rf $$dir && echo "selfprof-smoke ok"

# -nocache end to end: the same sweep with the caches on and off must print
# byte-identical reports, bar the timing line. -nocache runs the same sweep
# loop with every cache lookup computing fresh. The second leg samples a
# Fig 6 sweep representatively: cached, the series of a program share its
# bench and so its representative plans; under -nocache every task prepares
# its own bench and plans alone.
nocache-smoke:
	@dir=$$(mktemp -d); \
	run() { $(GO) run ./cmd/mgreport -plots=false "$$@" 2>/dev/null | sed '/completed in/d'; }; \
	fig1="-exp fig1 -only comm.crc32,comm.gen01 -input small"; \
	fig6="-exp fig6 -input large -sample-mode rep -only comm.gen06,intx.hashprobe,media.fir"; \
	run $$fig1 > $$dir/cached && run $$fig1 -nocache > $$dir/nocache && \
	grep -q '^Slack-Profile ' $$dir/cached && cmp $$dir/cached $$dir/nocache && \
	run $$fig6 > $$dir/cached6 && run $$fig6 -nocache > $$dir/nocache6 && \
	grep -q '^Slack-Dynamic ' $$dir/cached6 && cmp $$dir/cached6 $$dir/nocache6 || \
		{ echo "nocache-smoke FAILED"; rm -rf $$dir; exit 1; }; \
	rm -rf $$dir && echo "nocache-smoke ok"

# Sampling accuracy gate: the representative-interval estimator must
# simulate >=5x fewer instructions in detail than the full run while landing
# within 1% geomean IPC error on the pinned small-input workload set
# (internal/pipeline/sampling_accuracy_test.go). This is ISSUE 9's
# acceptance bar; loosening the thresholds needs a written justification.
sampling-accuracy:
	$(GO) test -run 'TestSamplingAccuracyGate' -count=1 ./internal/pipeline
	@echo "sampling-accuracy ok"

bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# benchjson: machine-readable microbenchmark baseline for the hot paths the
# attribution engine leans on (pipeline simulation, the walk itself). The
# revision and date come from the environment — no clock reads in tool code.
# The fresh numbers are diffed against the previous PR's committed baseline;
# a >15% ns/op regression or a >25% allocs/op growth on any shared benchmark
# fails the target. Each benchmark runs three times and benchjson keeps the
# fastest, damping scheduler noise; a benchmark's own metrics (the
# simulator benchmarks' ns/instr) are recorded per row and their deltas
# printed, but not gated. Documents carry a host fingerprint:
# benchjson warns when the baseline came from a different machine (those
# deltas measure the hardware as much as the code); pass -strict-host to
# make that a failure (see README "Performance").
benchjson:
	$(GO) test -run NONE -bench 'BenchmarkSimulator|BenchmarkAnalyze|BenchmarkRunSampled' -benchtime 5x -count 3 -benchmem \
		./internal/pipeline ./internal/critpath | \
	$(GO) run ./cmd/benchjson -rev "$$(git rev-parse --short HEAD)" \
		-date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-baseline BENCH_PR15.json > BENCH_PR17.json
	@echo "wrote BENCH_PR17.json"

# profile: CPU and allocation pprof profiles of the mini-graph simulator
# benchmark, written to the (gitignored) profiles/ directory. Inspect with
# `go tool pprof profiles/minigraphs.cpu.pb.gz` (top, list <fn>, web).
profile:
	@mkdir -p profiles
	$(GO) test -run NONE -bench BenchmarkSimulatorMiniGraphs -benchtime 100x -benchmem \
		-cpuprofile profiles/minigraphs.cpu.pb.gz \
		-memprofile profiles/minigraphs.mem.pb.gz \
		-o profiles/pipeline.test ./internal/pipeline
	@echo "wrote profiles/minigraphs.{cpu,mem}.pb.gz"

report:
	$(GO) run ./cmd/mgreport -exp all
