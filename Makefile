# Development targets. `make check` is what CI should run; it would have
# caught the missing-go.mod class of breakage mechanically.

GO ?= go

.PHONY: all build test vet fmt-check lint bench-smoke bench-json bench-compare bench-check race-smoke sweep-smoke docs-check check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs schedlint, the module's own analyzer suite
# (internal/analysis): determinism, hot-path allocation, pool pairing,
# the sealed internal/ boundary, and serve-layer channel discipline.
# See docs/INVARIANTS.md for the contracts and the //hybridsched:*
# directive vocabulary that records reviewed exceptions.
lint:
	$(GO) run ./cmd/schedlint ./...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench-smoke proves the hot-path benchmarks still compile and run: the
# event-queue benchmark is the kernel's allocation regression guard, the
# observer benchmark covers the streaming-sample path, the empirical-
# sampler benchmark the flow-size draw, the trace-replay benchmark the
# capture/replay injection path, the matching benchmarks
# (BenchmarkMatch*, at up to 512 ports) the scheduling core's
# nonzero-iteration hot path, the serve benchmarks the online
# service's allocation-free epoch loop, its epoch boundary on both
# sides of the replay-or-copy rule and the delta-scheduled ilqf epoch at
# 2048 ports (BenchmarkServeEpoch matches BenchmarkServeEpochDelta too),
# and the wire benchmark the
# daemon's connection loop (512 pipelined offers and a step per op over
# loopback TCP).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEventQueue|BenchmarkObserverStream|BenchmarkEmpiricalSampler|BenchmarkTraceReplay|BenchmarkMatch|BenchmarkServiceEpoch' -benchtime 0.1s .
	$(GO) test -run '^$$' -bench 'BenchmarkServeEpoch|BenchmarkServeBoundary' -benchmem -benchtime 0.1s ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkWireRound' -benchmem -benchtime 0.1s ./cmd/hybridschedd

# bench-json records the scheduling-core performance trajectory: it runs
# the matching and frame-decomposition benchmark set with -benchmem and
# rewrites BENCH_core.json ({name, ns_op, b_op, allocs_op} per
# benchmark). The committed file is the baseline future PRs diff against.
# Ten repetitions per benchmark: benchjson collapses them to the
# per-metric minimum (best observed steady state), which keeps the slow
# n=512 entries stable enough for the 20% bench-compare gate on noisy
# machines. BENCH_wire.json is the sibling ledger for the daemon's wire:
# BenchmarkWireRound, one op = one 512-offer pipelined round; and
# BENCH_serve.json the one for the service's epoch: BenchmarkServeBoundary,
# one op = an offer burst and a Step, journal replay at 2048 ports and
# full copy at 512, and BenchmarkServeEpochDelta, the 2048-port ilqf epoch
# scheduled from the boundary's change list. Every ledger carries an env
# stamp (CPU, GOMAXPROCS, Go version) that bench-compare prints, and
# never gates on, when it differs from the run's.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkMatch$$|BenchmarkFrameDecompose$$' -benchmem -benchtime 0.1s -count 10 . | $(GO) run ./cmd/benchjson -o BENCH_core.json
	$(GO) test -run '^$$' -bench 'BenchmarkWireRound$$' -benchmem -benchtime 0.1s -count 10 ./cmd/hybridschedd | $(GO) run ./cmd/benchjson -o BENCH_wire.json
	$(GO) test -run '^$$' -bench 'BenchmarkServeBoundary$$|BenchmarkServeEpochDelta$$' -benchmem -benchtime 0.1s -count 10 ./internal/serve | $(GO) run ./cmd/benchjson -o BENCH_serve.json

# bench-compare is the perf-regression gate on that trajectory: it
# re-runs the same benchmark set and diffs against the committed
# BENCH_core.json. Any allocs/op increase fails outright (the 0-alloc
# contract is exact); B/op may jitter within 64 bytes (runtime size
# classes); ns/op is gated after benchjson normalizes out the
# suite-median machine drift. The tolerance here is 40% rather than the
# tool's 20% default: on shared CI runners individual entries of the
# slow n=512 benchmarks swing up to ~35% between runs even after the
# min-of-10 collapse and drift normalization, and a deliberate hot-path
# pessimization lands far above either bound. Run this before
# bench-json — bench-json rewrites the baseline the gate diffs against.
# The wire and serve ledgers are gated by the same rules; with one and
# three entries there is no suite median to normalize by, so their ns/op
# ratios are gated raw.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkMatch$$|BenchmarkFrameDecompose$$' -benchmem -benchtime 0.1s -count 10 . | $(GO) run ./cmd/benchjson -compare BENCH_core.json -tolerance 0.40
	$(GO) test -run '^$$' -bench 'BenchmarkWireRound$$' -benchmem -benchtime 0.1s -count 10 ./cmd/hybridschedd | $(GO) run ./cmd/benchjson -compare BENCH_wire.json -tolerance 0.40
	$(GO) test -run '^$$' -bench 'BenchmarkServeBoundary$$|BenchmarkServeEpochDelta$$' -benchmem -benchtime 0.1s -count 10 ./internal/serve | $(GO) run ./cmd/benchjson -compare BENCH_serve.json -tolerance 0.40

# bench-check vets and tests the repository benchmark's own module
# (bench/, nested, so `go test ./...` at the root does not reach it). Its
# test runs every serve workload traced for a moment, which holds the
# service's frames against the harness's shadow of the epoch loop: a
# change to serve internals that breaks that equality fails here, in
# about ten seconds, before a benchmark run finds it.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# race-smoke runs the concurrency-bearing layers under the race detector:
# the parallel execution engine and the root fan-out/observer API,
# including the flow-level generator fan-out
# (TestFlowWorkloadParallelDeterminism), the golden-trace replays at
# several worker counts, the 256-port fabric scenario
# (TestScale256PortScenario), and the online scheduling service —
# streaming ingest, subscriptions, the sharded step fan-out, and the
# 10k-epoch live-workload run (TestServeLive10kEpochs) — plus the
# JSON-lines daemon serving it.
# internal/analysis rides along so the analyzer suite (whose loader
# shells out to the go tool and type-checks concurrently loaded
# packages) is exercised under the race detector too, and internal/match
# so the arbiters' and frame schedulers' pooled scratch (~40 s on two
# cores) is. TestFrameSchedulerSteadyStateAllocs builds only without
# -race: the race detector makes sync.Pool drop items, so the pooled
# matrices it counts on allocate there.
race-smoke:
	$(GO) test -race ./internal/runner/... ./internal/serve/... ./internal/analysis/... ./internal/match/... ./cmd/hybridschedd/... .

# sweep-smoke proves the declarative scenario path end to end: the sweep
# tool loads the committed scenario pack (the same documents the loader
# tests, the fuzzer seed corpus and the golden traces are built from) and
# runs every scenario on the worker pool. Any pack-format or dynamics
# regression that survives the unit layer fails here.
sweep-smoke:
	$(GO) run ./cmd/sweep -scenario-dir testdata/scenarios -parallel 4 >/dev/null

# docs-check keeps the documentation layer executable: go vet (including
# its doc-comment/printf analyzers) over every package, all godoc
# Example functions run with their expected output compared, and the
# markdown link + make-target checkers (TestDoc*) over README.md and
# docs/.
docs-check:
	$(GO) vet ./...
	$(GO) test -run '^Example' -v .
	$(GO) test -run '^TestDoc' .

check: fmt-check vet lint build test bench-smoke sweep-smoke docs-check
