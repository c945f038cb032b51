GO ?= go
SHELL = /bin/bash
# Per-benchmark measuring time for `make bench-smoke`; raise it for
# lower-variance ratios.
BENCHTIME ?= 100ms

# Seeds per protocol for `make chaos`.
CHAOS_SEEDS ?= 50

.PHONY: all build test race vet check examples clean golden lines bench-check profile-churn bench-smoke loadgen-smoke chaos chaos-sharded chaos-unsafe-spec quorum-check fuzz-smoke cover seeded seeded-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the gate CI and pre-commit hooks should run.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# examples runs the guided examples of the root example_test.go, each
# checked against its // Output: block, under the race detector.
# Example_cluster opens real loopback sockets and kills a host, so this
# is also the TCP path's end-to-end smoke.
examples:
	$(GO) test -race -count=1 -run '^Example' -v .

# A whole-system number comes from the repo benchmark — `bash
# bench/run.sh --workload W --seed N --seconds 20 --trace 0|1`, declared
# in BENCHMARK.json and described in bench/README.md — or from the CLI
# that owns the table: cmd/benchpaper (E1–E13), cmd/loadgen (rate
# sweeps). `go test -bench` keeps single-package building-block timers
# and the three bench-smoke gates below.

# bench-check vets and tests the repo benchmark. bench/ is a nested
# module (BENCHMARK.json runs it through bench/run.sh), so `go vet ./...`
# and `go test ./...` at the root never compile it: without this target
# an internal/ refactor can break the benchmark silently. It then runs
# the driver's own command — bench/run.sh, whose build is pinned to
# GOPROXY=off GOTOOLCHAIN=local GOWORK=off, which `go test` is not — for
# one traced second per workload, and requires exit status 0 and a result
# line (the last line of stdout) that says "correct":true.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	set -e; for w in lan-open shard-sat geo-fault select-scale; do \
		echo "bench/run.sh --workload $$w"; \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 1) \
			|| { echo "bench/run.sh --workload $$w exited non-zero" >&2; exit 1; }; \
		tail -n 1 <<<"$$out" | grep -q '"correct":true' \
			|| { echo "bench/run.sh --workload $$w did not end in \"correct\":true" >&2; exit 1; }; \
	done

# profile-churn profiles the message path where select-scale spends its
# time: BenchmarkQuorumChurn/n=64 (the same Theorem 4 game, see
# internal/adversary/bench_test.go) under the CPU and heap profilers.
# Read the result with `$(GO) tool pprof -top $(PROFILE_DIR)/cpu.prof`.
# bench/ has no profiling hook on purpose: the driver's command measures,
# this target explains.
PROFILE_DIR = .bench_build/profile
profile-churn:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkQuorumChurn/n=64' -benchtime 5x \
		-cpuprofile $(PROFILE_DIR)/cpu.prof -memprofile $(PROFILE_DIR)/mem.prof \
		-o $(PROFILE_DIR)/adversary.test ./internal/adversary/

# bench-smoke is the CI regression gate: a brief window sweep + fleet
# scaling sweep + cert verification pass. Each parent benchmark compares
# its own sub-benchmarks and fails if the pipeline has degraded to
# lockstep (req/s at window 16 below window 1), the 4-shard fleet has
# lost its aggregate scaling over one group (below 1.5x), or batch
# verification has lost its per-signature amortization — so the exit
# status of `go test` is the gate.
bench-smoke:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkXPaxosPipelinedThroughput|BenchmarkFleetThroughput|BenchmarkQuorumCertVerify' \
		-benchtime $(BENCHTIME) -count 1 -v ./internal/transport/ ./internal/crypto/

# loadgen-smoke drives a real 4-process, 2-shard TCP cluster with the
# open-loop generator over loopback HTTP frontends: a short Poisson run
# that must sustain its offered rate (goodput >= 0.9) with a sane p99,
# or the target fails. This is the end-to-end gate for cmd/loadgen's
# tcp mode, the HTTP ingress, and the sharded fleet together.
loadgen-smoke:
	set -e; tmp=$$(mktemp -d); trap 'kill $$(cat $$tmp/pids) 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/xpaxos ./cmd/xpaxos; \
	$(GO) build -o $$tmp/loadgen ./cmd/loadgen; \
	peers=127.0.0.1:7471,127.0.0.1:7472,127.0.0.1:7473,127.0.0.1:7474; \
	for i in 1 2 3 4; do \
		$$tmp/xpaxos -id $$i -peers $$peers -f 1 -shards 2 -window 16 \
			-http 127.0.0.1:847$$i >$$tmp/xpaxos-$$i.log 2>&1 & \
		echo $$! >> $$tmp/pids; \
	done; \
	$$tmp/loadgen -mode tcp \
		-targets 127.0.0.1:8471,127.0.0.1:8472,127.0.0.1:8473,127.0.0.1:8474 \
		-wait-ready 30s -arrivals poisson:rate=400 -keys zipf:n=2000,s=1.1 \
		-duration 5s -inflight 128 -seed 7 \
		-require-goodput 0.9 -require-p99-ms 500 -o $$tmp/loadgen-smoke.json

# chaos sweeps CHAOS_SEEDS seeds of the scenario fuzzer per protocol
# and fails on the first invariant violation, printing the violating
# seed and its replayable dump (see internal/chaos). chaos-sharded runs
# the sharded-partition fleet scenario the same way.
chaos:
	$(GO) run ./cmd/chaos -seeds $(CHAOS_SEEDS)

chaos-sharded:
	$(GO) run ./cmd/chaos -sharded -seeds $(CHAOS_SEEDS)

# chaos-unsafe-spec runs the unsafe-spec adversary both ways: the
# checker must reject the disjoint-quorum spec before boot, and when
# forced past the gate the spec must demonstrably fork the log
# (disjoint certificates on both sides of a partition).
chaos-unsafe-spec:
	$(GO) run ./cmd/chaos -unsafe-spec -seeds 5
	$(GO) run ./cmd/chaos -unsafe-spec -force-unsafe -seeds 1

# quorum-check runs the exact intersection/availability checker over
# every spec shipped in examples/, plus the known-unsafe spec (which
# must FAIL — hence the inverted exit check).
quorum-check:
	$(GO) run ./cmd/quorumcheck examples/quorum-specs/*.spec
	! $(GO) run ./cmd/quorumcheck -spec "slices:n=4;1={2};2={1};3={4};4={3}"

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# parser/validator regressions without burning CI minutes.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzQuorumSpec$$' -fuzztime 20s ./internal/quorum/

# cover runs the full suite with a coverage profile and prints the
# total-coverage summary line.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# lines prints the size every ROADMAP anchor tracks: non-test Go lines
# outside the frozen benchmark.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

# golden regenerates the Prometheus exposition golden file after an
# intentional format change.
golden:
	UPDATE_GOLDEN=1 $(GO) test ./internal/metrics/

# seeded prints the first 16 hex digits of the sha256 of every seeded
# output a refactor must keep byte-identical (or move on purpose), one
# "<hash>  <command>" line each. Every command is a pure function of its
# seed, so comparing two checkouts is one diff:
#   make seeded > a.txt; (in the other checkout) make seeded > b.txt; diff a.txt b.txt
SEEDED_BIN = .bench_build/seeded
seeded:
	@mkdir -p $(SEEDED_BIN)
	@$(GO) build -o $(SEEDED_BIN)/ ./cmd/benchpaper ./cmd/chaos ./cmd/fsim ./cmd/qsim ./cmd/loadgen
	@set -e; \
	sum() { echo "$$($(SEEDED_BIN)/"$$@" 2>&1 | sha256sum | cut -c1-16)  $$*"; }; \
	sum benchpaper; \
	for p in qs xpaxos; do for s in 0 7 41; do sum chaos -seed $$s -protocol $$p; done; done; \
	sum chaos -sharded -seed 3; \
	sum chaos -unsafe-spec -force-unsafe -seed 5; \
	sum fsim; \
	sum fsim -scenario crash -n 7 -f 2 -metrics-dump; \
	sum qsim -trace QUORUM; \
	sum loadgen -mode sim; \
	sum loadgen -mode sim -topology examples/topologies/geo3.topo -faults crash-restart -fault-seed 1

# seeded-check fails when any seeded output differs from the committed
# testdata/seeded.txt. A change that moves one on purpose regenerates
# the file in the same commit, so the move shows in its diff:
#   make seeded > testdata/seeded.txt
seeded-check:
	@$(MAKE) --no-print-directory seeded | diff -u testdata/seeded.txt -

clean:
	$(GO) clean ./...
