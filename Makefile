GO ?= go

.PHONY: all build test check lint vet race race-hot parity store-conformance fuzz-smoke load-smoke router-smoke trace-smoke bench-test bench bench-all bench-diff bench-diff-report clean

all: build

# Quick loop: skips the chaos soak test (gated on -short).
test:
	$(GO) test -short ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static hygiene: go vet plus gofmt as a failing check (gofmt -l lists
# unformatted files but always exits 0, so fail explicitly when it does).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Full suite under the race detector, soak test included.
race:
	$(GO) test -race ./...

# Focused race pass over the observability layer, the platform server and
# the shard router — the packages whose instruments, log handler, tracer
# ring, SLO burn-rate engine, probe surface, admission gate, per-worker
# limiter map and health tracker are hammered from many goroutines at once
# (see TestContentionAllInstruments, TestWorkerLimiterEvictRaceHammer,
# TestChaosOverloadBurst, TestChaosKillShard, TestTraceAssemblyAcrossFleet).
race-hot:
	$(GO) test -race ./internal/obsv ./internal/platform ./internal/shard

# Event-log conformance suite: the contracts the platform relies on from
# store.Log — append/replay parity, torn-tail crash recovery, snapshot
# round-trips, LastSeq across a reopen. Run this when changing the log.
store-conformance:
	$(GO) test -run 'TestConformance' -count=1 ./internal/store

# Short native fuzzing of the parsers at the trust boundaries (the store's
# log reader and snapshot parser, the traceparent header every router and
# shard request parses, and the server's -slo-endpoint-latency flag), 10s
# per target; the seed corpora under each package's testdata/fuzz also
# replay on every plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadTolerant$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s ./internal/obsv
	$(GO) test -run '^$$' -fuzz '^FuzzParseSLOLatencySpec$$' -fuzztime 10s ./internal/platform

# End-to-end overload smoke: boot icrowd-server with admission control and
# the per-worker limiter on, drive a short open-loop load pass, and fail
# on any 5xx or an empty report (writes /tmp/icrowd_load_smoke.json; the
# committed BENCH_load.json is a full-length run of the same harness).
load-smoke:
	./scripts/load_smoke.sh

# End-to-end sharding smoke: three icrowd-server shards behind
# icrowd-router — projects created through the router land on their ring
# owner only, a crowd runs through each, a killed shard takes only its own
# projects down (typed shard_unavailable 503) and is re-admitted after a
# restart from its own event logs.
router-smoke:
	./scripts/router_smoke.sh

# End-to-end tracing smoke: two shards behind the router, one submit, and
# GET /v1/trace/{traceid} must assemble the cross-process tree — router
# span as root, the owning shard's spans as children, one shared trace ID.
trace-smoke:
	./scripts/trace_smoke.sh

# Determinism contracts on their own: parallel precompute and the cached
# scheme are bit-identical to the sequential paths, the batched push kernel
# is bit-identical to one push solve per seed, the golden basis,
# adaptive and baseline runs pin the offline phase and every decision on
# the benchmark's dataset shape, the interned Jaccard and tf-idf kernels
# match their map-based references and Cos(tf-idf) builds reproduce to the
# bit, the job bookkeeping, fast index, Greedy and qualification selection
# match their reference implementations, and the single-project /v1 API is
# byte-identical to the default project's /v1/projects/default mount. (Also
# covered by `race`, but this target names the invariants and runs in
# seconds.)
parity:
	$(GO) test -run 'Parity|Golden|Deterministic|MatchesReference' ./internal/ppr ./internal/core ./internal/baseline ./internal/platform ./internal/assign ./internal/qualify ./internal/simgraph ./internal/textsim

# The end-to-end benchmark is its own module (bench/go.mod), so the root
# `go build ./...` and `go test ./...` never compile it; this builds it
# against the current core/platform APIs and runs its unit tests.
bench-test:
	cd bench && $(GO) test -short ./...

# The gate a PR must pass. bench-diff runs report-only here because shared
# CI machines are too noisy for a hard ns/op gate; run `make bench-diff`
# on a quiet box before committing a perf-sensitive change.
check: lint parity bench-test store-conformance fuzz-smoke race race-hot load-smoke router-smoke trace-smoke bench-diff-report

# Hot-path benchmarks -> BENCH_hotpath.json (sequential vs parallel
# precompute, incremental scheme recompute, /assign read throughput).
bench:
	$(GO) run ./cmd/icrowd-bench -out BENCH_hotpath.json

# Every benchmark in the repo, including the paper's tables and figures.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Benchmark-regression gate: re-measure the hot path and fail when any
# benchmark's ns/op regressed more than 10% against the committed
# BENCH_hotpath.json.
bench-diff:
	$(GO) run ./cmd/icrowd-bench -out /tmp/icrowd_bench_new.json
	$(GO) run ./cmd/icrowd-benchdiff BENCH_hotpath.json /tmp/icrowd_bench_new.json

# Same comparison, but never fails the build: prints the delta table for
# human review (what `make check` runs).
bench-diff-report:
	$(GO) run ./cmd/icrowd-bench -out /tmp/icrowd_bench_new.json
	$(GO) run ./cmd/icrowd-benchdiff -report-only BENCH_hotpath.json /tmp/icrowd_bench_new.json

clean:
	$(GO) clean ./...
