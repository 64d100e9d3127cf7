# PuPPIeS build/check targets. `make check` is the CI gate: formatting,
# vet, the full test suite, and the resilience/concurrency tests under the
# race detector (TestConcurrentClients and the internal/faults harness run
# as part of the -race invocation).

GO ?= go

.PHONY: all build test check fmt race fuzz-smoke bench cluster-e2e cluster-demo profile

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the PSP pipeline tests (client retries, fault injection,
# concurrent clients, pspd graceful shutdown), the durable-store crash
# matrix, the cluster gateway (ring, breakers, quorum replication, fault
# matrix) with its daemon, the serving spine both daemons share (admission
# wrapper, batch reader), the parallel-pipeline determinism suite, the
# reduced-IDCT kernels and transform planner (parallel scaled decode +
# worker-count determinism), the region key schedule in internal/core
# (encrypt, decrypt and shadow visits run concurrently with per-chunk
# state), multi-pair parallel encryption through both
# facade protect entry points, the chunked scan decode and encode (restart
# segments, speculative chunks sharing the grid and their per-chunk
# records, bit-spliced emit, the never-synchronizing stream, and grids
# taken uncleared from the slab pool), the sender's strip import (strip
# workers share the output grids), the scaled-decode parallel plane
# fills, the encoder's parallel nonzero-mask pass (reference walk and range
# rejection), and the allocation and coefficient-byte bounds under -race.
race:
	$(GO) test -race -count=1 ./internal/psp/... ./internal/servecache/... ./internal/faults/... ./internal/blobstore/... ./internal/cluster/... ./internal/admission/... ./internal/spine/... ./internal/stats/... ./internal/loadgen/... ./internal/searchidx/... ./internal/dct/... ./internal/transform/... ./internal/core/... ./cmd/pspd/... ./cmd/pspgw/...
	$(GO) test -race -count=1 -run 'TestParallelDeterminism|TestProtectRecoverAllocBudget|TestProtectMultiKeyPerRegion|TestProtectKeysPerRegionValidation' .
	$(GO) test -race -count=1 -run 'TestRestart|TestToPlanarScaled|TestNative420CoeffBytes|TestEncodeMatchesReferenceWalk|TestEncodeRejectsOutOfRangeCoefficients|TestChunkedDecodeMatchesSerial|TestChunkedEncodeMatchesSerial|TestHostileChunkedDecodeBound|TestPoolsResetPoisonedBuffers|TestFromStdImageMatchesPlanar' ./internal/jpegc

# cluster-e2e runs the full crash/partition e2e on its own: a real 3-shard
# cluster behind the gateway, one shard SIGKILLed mid-traffic, an asymmetric
# partition on a second, zero failed client requests, and byte-identical
# replicas after restart + repair. The -timeout guard keeps a wedged cluster
# from hanging CI.
cluster-e2e:
	$(GO) test -count=1 -timeout 120s -run 'TestClusterSurvives' ./cmd/pspgw/

# cluster-demo boots three in-memory shards plus the gateway on local ports
# and leaves them running for manual poking (Ctrl-C stops everything).
cluster-demo: build
	@bash -c 'set -e; trap "kill 0" EXIT INT TERM; \
	$(GO) run ./cmd/pspd -addr 127.0.0.1:8754 & \
	$(GO) run ./cmd/pspd -addr 127.0.0.1:8755 & \
	$(GO) run ./cmd/pspd -addr 127.0.0.1:8756 & \
	sleep 1; \
	$(GO) run ./cmd/pspgw -addr 127.0.0.1:8750 \
		-shards http://127.0.0.1:8754,http://127.0.0.1:8755,http://127.0.0.1:8756; \
	wait'

# fuzz-smoke gives each fuzz target a short budget so `make check` exercises
# the decoders against the native fuzzer on every run (corpus regressions
# under testdata/ always run as plain tests regardless).
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/jpegc
	$(GO) test -run '^$$' -fuzz '^FuzzMaskBlocks$$' -fuzztime $(FUZZTIME) ./internal/jpegc
	$(GO) test -run '^$$' -fuzz '^FuzzForwardQuantized$$' -fuzztime $(FUZZTIME) ./internal/dct
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePublicData$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelope$$' -fuzztime $(FUZZTIME) ./internal/blobstore
	$(GO) test -run '^$$' -fuzz '^FuzzLog$$' -fuzztime $(FUZZTIME) ./internal/blobstore
	$(GO) test -run '^$$' -fuzz '^FuzzSpecKey$$' -fuzztime $(FUZZTIME) ./internal/transform
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime $(FUZZTIME) ./internal/transform
	$(GO) test -run '^$$' -fuzz '^FuzzSignature$$' -fuzztime $(FUZZTIME) ./internal/searchidx
	$(GO) test -run '^$$' -fuzz '^FuzzIndexSnapshot$$' -fuzztime $(FUZZTIME) ./internal/searchidx

# bench runs every benchmark (paper tables/figures plus the kernel and
# pipeline micro-benchmarks) and prints the results. The performance bounds
# are plain tests that run these same benchmarks under `go test`.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# profile captures CPU and allocation pprof profiles of the hot paths —
# the protect/recover pipeline (paper Table 1 workload), one op of
# perfbench's share workload (Protect + UnprotectJPEG on Caltech renders)
# and the streaming batch upload route — and prints the CPU top for each.
# Inspect further with
#   go tool pprof $(PROFILE_DIR)/share.cpu.prof
PROFILE_DIR ?= profiles
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkTable1Capabilities' -benchtime 2s \
		-cpuprofile $(PROFILE_DIR)/protect.cpu.prof -memprofile $(PROFILE_DIR)/protect.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkShareOp$$' -benchtime 2s \
		-cpuprofile $(PROFILE_DIR)/share.cpu.prof -memprofile $(PROFILE_DIR)/share.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkUploadBatch$$' -benchtime 2s \
		-cpuprofile $(PROFILE_DIR)/batch.cpu.prof -memprofile $(PROFILE_DIR)/batch.mem.prof ./internal/psp/
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/protect.cpu.prof
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/share.cpu.prof
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/batch.cpu.prof

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# check also vets and tests the perfbench module: the benchmark is its own
# module, so the root `go vet ./...` and `go test ./...` never compile it
# against the psp/cluster API.
check: fmt
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd perfbench && $(GO) test -count=1 .
	$(MAKE) race
	$(MAKE) cluster-e2e
	$(MAKE) fuzz-smoke
