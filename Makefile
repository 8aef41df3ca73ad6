GO ?= go

.PHONY: build test race vet bench bench-json fmt fuzz-smoke server-smoke topology-smoke fsck-smoke trace-smoke sketch-smoke conformance cover all

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Machine-readable benchmark record: run the root, server, index, graph,
# jaccard, trace, sketch, infmax and checkpoint benchmark suites and convert
# the combined output to JSON (schema soi.bench/v1) keyed by benchmark name.
# The defaults are a one-iteration smoke run written to the untracked
# bench.json; to record a baseline, pass a real BENCHTIME (for example 1s)
# and a new BENCH_OUT, so a bare `make bench-json` never overwrites a
# committed BENCH_*.json.
BENCHTIME ?= 1x
BENCH_OUT ?= bench.json

bench-json:
	{ $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) . ; \
	  $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) ./internal/server ; \
	  $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) ./internal/index ; \
	  $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) ./internal/graph ; \
	  $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) ./internal/jaccard ; \
	  $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) ./internal/trace ; \
	  $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) ./internal/sketch ; \
	  $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) ./internal/infmax ; \
	  $(GO) test -run=^$$ -bench=. -benchtime=$(BENCHTIME) ./internal/checkpoint ; } \
	  | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Short fuzz runs over every binary-format decoder (graph TSV, index
# SOIIDX03 through the eager reader alone and through both the eager and
# the mmap reader, the index build's checkpoint payload, sphere store
# SOISPH02, checkpoint SOICKP01 and the all-nodes sweep's checkpoint
# payload, sketch SOISKC01), plus the typical-cascade prefix kernel checked
# against its reference implementation. Each gets its own
# `go test` invocation because -fuzz accepts a single target per run.
# FUZZTIME is per decoder.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReadTSV -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run=^$$ -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/index
	$(GO) test -run=^$$ -fuzz='^FuzzReadV03$$' -fuzztime=$(FUZZTIME) ./internal/index
	$(GO) test -run=^$$ -fuzz=FuzzBuildPayload -fuzztime=$(FUZZTIME) ./internal/index
	$(GO) test -run=^$$ -fuzz=FuzzLoadSpheres -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSweepPayload -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=^$$ -fuzz=FuzzReadSketch -fuzztime=$(FUZZTIME) ./internal/sketch
	$(GO) test -run=^$$ -fuzz='^FuzzPrefix$$' -fuzztime=$(FUZZTIME) ./internal/jaccard

# End-to-end serving smoke: build soid, start it on an ephemeral port
# against a tiny dataset, run a scripted client session (incl. a forced 206
# and 429), and assert a clean SIGTERM drain.
server-smoke:
	./scripts/server-smoke.sh

# Sharded-serving smoke: partition a graph, start a gateway over two soid
# shards (one with a spare replica), then exercise replica failover, a
# mid-query shard kill degrading to a bounded 206, circuit-breaker recovery
# after a restart, and a clean SIGTERM drain.
topology-smoke:
	./scripts/topology-smoke.sh

# Corruption-repair smoke: build an index on disk, flip bytes in one world
# block, verify soifsck reports exactly that block, serve the corrupt file
# with soid -mmap (degraded 206 answers with a widened bound), repair it
# with soifsck -repair, and assert the repaired file serves 200 again.
fsck-smoke:
	./scripts/fsck-smoke.sh

# Distributed-tracing smoke: gateway + two traced shards, follow a healthy
# query's X-SOI-Request-ID into /debug/traces on both tiers, then kill a
# shard mid-query and assert the 206's trace shows the dead leg, the
# retries, and the breaker opening. SOI_SMOKE_ARTIFACTS=<dir> captures
# logs and trace dumps on failure.
trace-smoke:
	./scripts/trace-smoke.sh

# Sketch-estimation smoke: build an index and a SOISKC01 sketch with sphere,
# serve both with soid, query /v1/{spread,sphere,seeds} with estimator=sketch,
# and assert every sketch answer lands within its own reported error_bound of
# the dense index answer.
sketch-smoke:
	./scripts/sketch-smoke.sh

# Exact-oracle conformance suite: every estimator checked against the
# brute-force possible-world oracle within statcheck-derived bounds.
# -count=2 runs everything twice to flush out any order or cache
# dependence — the suite is deterministic by construction, so both runs
# must agree. The second invocation re-runs the server suite against the
# memory-mapped lazy index loader: serialize → mmap → page-on-demand must
# be statistically indistinguishable from the in-memory index.
conformance:
	$(GO) test -run 'Conformance|Oracle' -count=2 ./...
	SOI_INDEX_MMAP=1 $(GO) test -run 'Conformance' -count=1 ./internal/server

# Coverage gate: full-suite statement coverage must stay at or above the
# floor pinned in scripts/coverage-gate.sh (override with COVER_MIN=NN.N).
cover:
	./scripts/coverage-gate.sh

fmt:
	gofmt -w .
