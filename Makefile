# Tier-1 verification, CI checks and tracked benchmarks.

.PHONY: all build test check bench

all: build test

build:
	go build ./...

test:
	go test ./...

# check is the CI gate (run on every push/PR by
# .github/workflows/ci.yml): formatting (the whole module must be
# gofmt-clean, including the protocol registry package), static
# analysis, the full test suite under the race detector (the campaign
# runner and the sharded engine are the concurrency hot spots), the
# registry-driven protocol conformance suite, and short end-to-end
# campaign runs through the sweep CLI — the smoke spec, the spec that
# names every registered sweepable protocol, the dynamic-network
# recovery sweep, and the unreliable-channel robustness sweep (trials
# cut down for speed; every trial's output is still validated against
# its final graph, with Byzantine nodes excluded). The lossy spec
# carries the engine axis, so the gate exercises the sync engine, the
# α synchronizer and the loss-tolerant αβ hybrid on every channel; the
# hostile spec drives the same protocols through the voted αβv tier
# against corruption and Byzantine silence, where the αβ hybrid fails.
# The engine test line includes the bit-plane memory guard
# (TestPackedFootprint: packed run state stays under its bytes-per-node
# budget); the million-node benchmark itself is size-gated off
# single-core CI and runs via `make bench` on real hardware.
# The engine allocation line (TestAllocs*) covers static, scenario and
# channel sync runs and static, voted and scenario async runs. The
# distributed-sweep gate follows: the smoke spec sharded over 3 worker
# processes (a fresh work directory, real re-exec'd `stonesim work`
# workers) must emit JSON and CSV byte-identical to the single-process
# run once -stripwall removes the machine-dependent wall-clock stats.
# The last line vets and tests the benchmark module: perfbench/ is a Go
# module of its own, so the root `./...` patterns never compile it, and
# an engine API change could otherwise break the benchmark unseen.
check: build
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	go vet ./...
	go test -race ./...
	go test ./internal/protocol -run TestConformance -count=1
	go test ./internal/engine -run 'TestAllocs|TestLadder|TestDelivPool|TestPackedFootprint' -count=1
	go run ./cmd/stonesim sweep -spec examples/specs/smoke.json -q -json /tmp/stonesim-smoke.json
	go run ./cmd/stonesim sweep -spec examples/specs/all-protocols.json -q
	go run ./cmd/stonesim sweep -spec examples/specs/churn-mis.json -q -trials 4
	go run ./cmd/stonesim sweep -spec examples/specs/lossy-mis.json -q -trials 4
	go run ./cmd/stonesim sweep -spec examples/specs/hostile-mis.json -q -trials 4
	rm -rf /tmp/stonesim-check-shard
	go run ./cmd/stonesim sweep -spec examples/specs/smoke.json -q -stripwall -json /tmp/stonesim-shard-1.json -csv /tmp/stonesim-shard-1.csv
	go run ./cmd/stonesim sweep -spec examples/specs/smoke.json -q -stripwall -procs 3 -workdir /tmp/stonesim-check-shard -json /tmp/stonesim-shard-3.json -csv /tmp/stonesim-shard-3.csv
	cmp /tmp/stonesim-shard-1.json /tmp/stonesim-shard-3.json
	cmp /tmp/stonesim-shard-1.csv /tmp/stonesim-shard-3.csv
	cd perfbench && go vet ./... && go test ./...
	@echo "check: OK"

# bench regenerates BENCH_10.json from the tracked benchmark set
# (E1 MIS sync — including the streamed million-node bit-plane run
# where the host allows it — E2 MIS async, E3 synchronizer overhead, the αβ
# tolerant-synchronizer overhead, the voted αβv overhead (burst tax at
# TU-ratio 1.0 plus the adaptive-backoff re-pulse savings under skew),
# E5 tree coloring, E9 nFSM-simulates-LBA, the engine ref-vs-compiled
# and per-step ablations, the campaign sweep, the sharded-sweep
# dispatch overhead at 1/2/4 procs, and the registry-generated protocol
# matrix), with -benchmem, then diffs ns/op against the previous
# BENCH_N.json and warns on >15% regressions. Override the output file
# or iteration count with BENCH_OUT / BENCH_TIME, the comparison
# baseline with BENCH_PREV (BENCH_PREV=none skips it).
BENCH_OUT ?= BENCH_10.json
BENCH_TIME ?= 20x

bench:
	sh scripts/bench.sh $(BENCH_OUT) $(BENCH_TIME)
