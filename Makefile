# govp build/test entry points. `make tier1` is the gate every change
# must pass: build, vet, and the full test suite under the race
# detector — mandatory now that campaigns execute on worker pools.

GO ?= go

.PHONY: all build vet test race tier1 bench bench-smoke bench-campaign bench-json bench-reuse bench-sharded bench-checkpoint bench-tree bench-ecu bench-adaptive bench-daemon bench-obs bench-fabric fuzz-smoke daemon-e2e fabric-e2e

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

tier1: build vet race

# Full benchmark sweep (regenerates every experiment).
bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark in the module: catches benchmarks
# that rot (compile but crash) without paying for real measurement.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Sequential vs parallel campaign engine on the E8 single-fault
# universe; compare the two sub-benchmarks with benchstat.
bench-campaign:
	$(GO) test -run xxx -bench BenchmarkCampaignParallel -benchtime 20x .

# Rebuild-per-run vs kernel-reuse campaign paths (the PR 3 tentpole);
# compare rebuild/* with reuse/* using benchstat.
bench-reuse:
	$(GO) test -run xxx -bench BenchmarkCampaignReuse -benchtime 10x .

# Shard/journal/merge overhead on the E8 universe (the PR 4
# tentpole): shards=1 is the journaled baseline, shards=2/4 add the
# partition + merge machinery.
bench-sharded:
	$(GO) test -run xxx -bench BenchmarkCampaignSharded -benchtime 20x .

# Golden-run checkpointing vs the reuse path at a late injection time
# (the PR 5 tentpole); compare reuse/* with checkpointed/* using
# benchstat, or regenerate the committed BENCH_PR5.json snapshot.
bench-checkpoint:
	$(GO) run ./cmd/benchjson -bench BenchmarkCampaignCheckpointed -benchtime 10x -o BENCH_PR5.json .

# Checkpoint tree + convergence early-exit vs the single-checkpoint
# and reuse paths on the E8 transient sweep (the PR 8 tentpole);
# compare checkpointed/* with tree*/* using benchstat, or regenerate
# the committed BENCH_PR8.json snapshot.
bench-tree:
	$(GO) run ./cmd/benchjson -bench BenchmarkCampaignTree -benchtime 10x -o BENCH_PR8.json .

# ECU model layer per scenario: plain, tree and tree+early-exit
# campaigns on a live-window SEU universe at 2 workers, with allocs;
# regenerates the committed BENCH_PR13.json snapshot.
bench-ecu:
	$(GO) run ./cmd/benchjson -bench BenchmarkECUCampaign -benchtime 20x -o BENCH_PR13.json ./internal/ecu

# Adaptive (signature-novelty) campaign vs blind Monte-Carlo at an
# equal simulated-run budget on the E8-derived CAPS universe (the
# PR 10 tentpole). The bench itself asserts the >=2x unique-outcome
# yield; this target regenerates the committed BENCH_PR10.json.
bench-adaptive:
	$(GO) run ./cmd/benchjson -bench BenchmarkCampaignAdaptive -benchtime 10x -o BENCH_PR10.json .

# Native fuzzing smoke: run each fuzz target for FUZZTIME (~30s total
# at the default). The seed corpora alone run under `go test`; this
# target actually mutates, catching parser/interpreter/journal
# regressions the fixed seeds would miss.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzInterp -fuzztime=$(FUZZTIME) ./internal/mdl
	$(GO) test -run=NONE -fuzz=FuzzDescriptor -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run=NONE -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run=NONE -fuzz=FuzzJournalBinary -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run=NONE -fuzz=FuzzCampaignSpec -fuzztime=$(FUZZTIME) ./internal/campaignd
	$(GO) test -run=NONE -fuzz=FuzzECUDigest -fuzztime=$(FUZZTIME) ./internal/ecu

# Campaign-service end-to-end: the goldenfile CLI harness plus the
# capsimd daemon lifecycle matrix (kill/restart resume, concurrent
# clients, malformed specs), under the race detector.
daemon-e2e:
	$(GO) test -race -count=1 ./internal/campaignd ./internal/clitest

# Distributed-fabric end-to-end: the coordinator/worker chaos suite
# (kill/stall/steal with byte-identical recovery), the stressortest
# distributed axis on both prototypes, and the coord/worker subprocess
# goldens, all under the race detector.
fabric-e2e:
	$(GO) test -race -count=1 ./internal/fabric ./internal/clitest
	$(GO) test -race -count=1 -run 'Matrix' ./internal/caps ./internal/ecu

# Binary-vs-JSONL journal codec throughput and 1-vs-2-worker fabric
# campaign throughput (the PR 9 tentpole); regenerates the committed
# BENCH_PR9.json snapshot.
bench-fabric:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkJournalCodec|BenchmarkCampaignDistributed' -benchtime 5x -o BENCH_PR9.json ./internal/journal ./internal/fabric

# Daemon submit-to-done turnaround: warm (cached runner + parked
# checkpoint sessions) vs cold (rebuild per run); compare with
# benchstat.
bench-daemon:
	$(GO) test -run xxx -bench BenchmarkDaemonRunTurnaround -benchtime 10x ./internal/campaignd

# Telemetry-plane overhead: Prometheus exposition encode and flight-
# recorder writes, with -benchmem so the zero-allocs/op steady state
# is visible; TestPromEncodeZeroAlloc and
# TestFlightRecorderRecordZeroAlloc gate the same property in tier1.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkObsExposition|BenchmarkFlightRecorder' -benchmem ./internal/obs

# Machine-readable benchmark snapshot: the perf trajectory artifact
# committed per perf PR (BENCH_PR<n>.json). Override OUT to target a
# different file, e.g. `make bench-json OUT=BENCH_PR4.json`.
OUT ?= BENCH_PR4.json
bench-json:
	$(GO) run ./cmd/benchjson -benchtime 1x -o $(OUT) ./...
