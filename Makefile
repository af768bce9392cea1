# perfq build/test/bench entry points. See EXPERIMENTS.md for how to
# regenerate the paper's figures and read the scaling benchmarks.

GO ?= go

.PHONY: all build test race bench bench-json bench-check bench-compare perfbench-test profile vet figures clean

all: build test

build:
	$(GO) build ./...

# Tier-1 gate: what CI runs.
test: build
	$(GO) test ./...

# The sharded datapath's, the fabric's and the windowed runtime's
# concurrency contracts under the race detector (the fabric equivalence
# suite runs one worker goroutine per switch; the windowed suite
# barriers shard pools and the fabric pump at every epoch boundary; the
# Workers tests drive the SPSC ring transport directly, wrap-around and
# sentinel slots included; the Chaos/Pool suites exercise the backing
# pool's shipper goroutines, health probers and fault-injected
# connections; the Obs suite scrapes /metrics + /debug/perfq over HTTP
# while the sharded windowed datapath is feeding, racing the registry's
# readers against every mirror write; the Trace/Journal suites hammer
# the span rings and the flight recorder from concurrent writers and
# scrape /debug/trace + /debug/events mid-run). The suites force
# GOMAXPROCS >= 4 internally so the parallel paths run even on a
# single-core host. -short skips the longest stall-injection cases; run
# without it before a release.
race:
	$(GO) test -race -short -run 'TestSharded|TestWithShards|TestPool|TestWorkers|TestFabric|TestWindowed|TestChaos|TestBackingPool|TestServerRestart|TestObs|TestTrace|TestJournal' ./...

bench:
	$(GO) test -bench . -benchtime 1s -run XXX .

# Record the perf trajectory: the sharded-datapath scaling series
# (pkts/s, allocs/op at shards 1/2/4/8, each at GOMAXPROCS =
# min(shards, NumCPU), now with the metrics registry attached — the
# instrumented path is the recorded path), the network-wide fabric
# replay (pkts/s, serial vs worker-per-switch), the windowed-runtime
# boundary overhead (pkts/s at window sizes 1k/10k/100k vs
# single-window), the observability on/off A-B, the trace-sampling
# on/off A-B, the transport batch sweep, the router's per-record cost,
# the sparse window-close flush and the fold-eval microbench, written as
# JSON for the repo's BENCH_*.json history. Every benchmark runs 5
# times; benchjson records each entry's median with its ns/op min and
# max. pipefail so a failing benchmark can't silently record a partial
# file; the recorded file is then procs-checked.
bench-json: SHELL := /bin/bash
bench-json:
	set -o pipefail; \
	{ $(GO) test -bench 'BenchmarkShardedDatapath|BenchmarkFabricDatapath|BenchmarkWindowedDatapath|BenchmarkObsOverhead|BenchmarkTraceOverhead' -benchtime 2s -benchmem -count 5 -run XXX . && \
	  $(GO) test -bench 'BenchmarkWorkersTransport|BenchmarkRoute' -benchtime 1s -benchmem -count 5 -run XXX ./internal/shard && \
	  $(GO) test -bench 'BenchmarkFlushSparse' -benchtime 2000x -benchmem -count 5 -run XXX ./internal/kvstore && \
	  $(GO) test -bench 'BenchmarkFoldEval' -benchtime 1s -benchmem -count 5 -run XXX ./internal/fold ; } \
	| $(GO) run ./cmd/benchjson -out BENCH_13.json
	$(GO) run ./cmd/benchjson -check BENCH_13.json
	@cat BENCH_13.json

# Guard the recorded trajectory: fail if any multi-shard entry of the
# newest recording claims procs: 1 on a multi-CPU host (the harness bug
# that made the BENCH_3..5 scaling series fiction). CI runs this.
bench-check:
	$(GO) run ./cmd/benchjson -check BENCH_13.json

# Benchstat-style diff of the newest recording against the previous one.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_10.json BENCH_13.json

# The end-to-end benchmark (perfbench/) is its own Go module, so
# `go test ./...` from the root does not reach it; this vets and tests it
# (metric emission, the correctness gate, compare) on tiny captures.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Hot-path diagnosis: run the reference EWMA query over a DC trace with
# CPU and heap profiles; inspect with `go tool pprof cpu.prof`.
profile: build
	$(GO) run ./cmd/pqrun -gen dc -duration 4s -pairs 16384 -ways 8 \
		-cpuprofile cpu.prof -memprofile mem.prof -rows 5 testdata/ewma.pq
	@echo "wrote cpu.prof and mem.prof — inspect with: go tool pprof cpu.prof"

# Static checks: go vet, and gofmt over every tracked Go file (any file
# gofmt would rewrite fails the target).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# The paper's evaluation at CI scale.
figures:
	$(GO) run ./cmd/evalhw -exp all

clean:
	$(GO) clean ./...
