# PuPPIeS build/check targets. `make check` is the CI gate: formatting,
# vet, the full test suite, and the resilience/concurrency tests under the
# race detector (TestConcurrentClients and the internal/faults harness run
# as part of the -race invocation).

GO ?= go

# BENCH_OUT is the JSON report `make bench` writes. `make bench-compare`
# gates every benchmark common to OLD and NEW on >10% ns/op or allocs/op
# regressions; set HOT_BENCHMARKS to restrict the gate to named benchmarks
# (their absence from NEW then also fails).
BENCH_OUT ?= BENCH_PR7.json
HOT_BENCHMARKS ?=

# SERVE_BENCHMARKS are the PR 5 serving-path benchmarks; bench-compare
# additionally requires them to be present in NEW (they gate the cache
# layer's hot path and collapse behavior).
SERVE_BENCHMARKS ?= BenchmarkServeTransformedCold,BenchmarkServeTransformedHot,BenchmarkServeTransformedConcurrent,BenchmarkServeTransformedCollapse

# BATCH_BENCHMARKS are the PR 7 batch-upload and native-subsampling
# benchmarks: required in NEW (>10% ns/op or allocs/op regression fails once
# they exist in the baseline), and PERF_RATIOS additionally asserts the two
# headline guarantees on the new report itself — the streaming batch route
# sustains at least 2x the sequential upload throughput per core, and the
# native 4:2:0 decode carries at least 1.5x fewer coefficient bytes than the
# 4:4:4-normalized pipeline.
BATCH_BENCHMARKS ?= BenchmarkUploadSequential,BenchmarkUploadBatch,BenchmarkDecodeNative420,BenchmarkDecodeNormalized420
PERF_RATIOS ?= BenchmarkUploadSequential/BenchmarkUploadBatch>=2:ns/op,BenchmarkDecodeNormalized420/BenchmarkDecodeNative420>=1.5:coeff-bytes/op,BenchmarkProtectRecoverAllocSLO/BenchmarkProtectRecoverPerMP>=1:allocs/op

.PHONY: all build test check fmt race fuzz-smoke bench bench-compare cluster-e2e cluster-demo load-gate search-gate thumb-gate profile

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
# worker-count determinism), and the restart-segment and scaled-decode
# parallel plane fills under -race.
race:
	$(GO) test -race -count=1 ./internal/psp/... ./internal/servecache/... ./internal/faults/... ./internal/blobstore/... ./internal/cluster/... ./internal/admission/... ./internal/spine/... ./internal/stats/... ./internal/loadgen/... ./internal/searchidx/... ./internal/dct/... ./internal/transform/... ./cmd/pspd/... ./cmd/pspgw/...
	$(GO) test -race -count=1 -run 'TestParallelDeterminism' .
	$(GO) test -race -count=1 -run 'TestRestart|TestToPlanarScaled' ./internal/jpegc

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
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePublicData$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelope$$' -fuzztime $(FUZZTIME) ./internal/blobstore
	$(GO) test -run '^$$' -fuzz '^FuzzSpecKey$$' -fuzztime $(FUZZTIME) ./internal/transform
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime $(FUZZTIME) ./internal/transform
	$(GO) test -run '^$$' -fuzz '^FuzzSignature$$' -fuzztime $(FUZZTIME) ./internal/searchidx
	$(GO) test -run '^$$' -fuzz '^FuzzIndexSnapshot$$' -fuzztime $(FUZZTIME) ./internal/searchidx

# bench runs every benchmark (paper tables/figures plus the kernel and
# pipeline micro-benchmarks) and writes a JSON report to $(BENCH_OUT).
# BENCH_COUNT runs each benchmark N times; benchfmt keeps the fastest, so
# the report is best-of-N — noise on a busy machine only ever slows a run.
BENCH_COUNT ?= 3
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./... | tee /dev/stderr | $(GO) run ./cmd/benchfmt -o $(BENCH_OUT)

# bench-compare diffs two bench reports, printing per-benchmark deltas, and
# fails on a >10% ns/op or allocs/op regression:
#   make bench BENCH_OUT=old.json   # on the baseline commit
#   make bench BENCH_OUT=new.json   # on the candidate
#   make bench-compare OLD=old.json NEW=new.json
# The second pass gates the serving-path benchmarks: their absence from NEW
# fails the build even when the baseline predates them.
OLD ?= BENCH_PR5.json
NEW ?= $(BENCH_OUT)
bench-compare:
	$(GO) run ./cmd/benchfmt -old $(OLD) -new $(NEW) $(if $(HOT_BENCHMARKS),-hot '$(HOT_BENCHMARKS)')
	$(GO) run ./cmd/benchfmt -old $(OLD) -new $(NEW) -hot '$(SERVE_BENCHMARKS)'
	$(GO) run ./cmd/benchfmt -old $(OLD) -new $(NEW) -hot '$(BATCH_BENCHMARKS)' -ratio '$(PERF_RATIOS)'

# load-gate is the PR 8 SLO gate: a seeded Zipf load run (cmd/loadgen)
# against an in-process 3-shard cluster whose gateway admission capacity is
# deliberately tiny, with the builtin chaos schedule (full 503 blackout on
# shard 0, partial burst on shard 1, partition of shard 2) running
# underneath. The run itself gates on zero unexpected client-visible
# failures, 429+Retry-After shedding having been exercised, and every
# breaker having tripped AND recovered; benchfmt then re-asserts from the
# written report that hot transformed-GET p99 stayed under LOAD_SLO_P99 and
# ok-per-op stayed at 1.0. The artifact is committed as $(LOAD_OUT).
LOAD_OUT ?= BENCH_PR8.json
LOAD_SEED ?= 42
LOAD_DURATION ?= 8s
LOAD_WORKERS ?= 12
LOAD_SLO_P99 ?= 250ms
LOAD_SLO_THUMB_P99 ?= 250ms
LOAD_SLO_RATIOS ?= LoadSLOHotGet/LoadHotGet>=1:p99-ns,LoadSLOThumbnail/LoadThumbnail>=1:p99-ns,LoadOverall/LoadSLOHotGet>=1:ok-per-op
load-gate:
	$(GO) run ./cmd/loadgen -selfhost 3 -seed $(LOAD_SEED) -duration $(LOAD_DURATION) \
		-workers $(LOAD_WORKERS) -corpus 16 -chaos gate \
		-gw-max-inflight 4 -gw-admit-wait 10ms -gw-admit-queue 2 \
		-slo-hotget-p99 $(LOAD_SLO_P99) -slo-thumb-p99 $(LOAD_SLO_THUMB_P99) \
		-max-unexpected 0 -require-sheds -require-breaker-cycle \
		-o $(LOAD_OUT)
	$(GO) run ./cmd/benchfmt -new $(LOAD_OUT) -ratio '$(LOAD_SLO_RATIOS)'

# search-gate is the PR 9 catalog-search gate: the searchidx benchmarks run
# at 10^4/10^5/10^6 signatures (clustered near-duplicate corpus, the regime
# the signature was designed for) and the report is committed as
# $(SEARCH_OUT). benchfmt then asserts the headline guarantees from the
# report itself: the indexed lookup beats the brute-force scan by at least
# 50x at 10^5, recall@10 holds at >= 0.9, and lookup p99 stays under the
# 1ms SLO row emitted by BenchmarkSearchSLO. SEARCH_BENCH_COUNT is best-of-N
# per benchmark (the corpus is built once per process and reused).
SEARCH_OUT ?= BENCH_PR9.json
SEARCH_BENCH_COUNT ?= 3
SEARCH_RATIOS ?= BenchmarkSearchScan100k/BenchmarkSearchLookup100k>=50:ns/op,BenchmarkSearchLookup100k/BenchmarkSearchSLO>=1:recall-k10,BenchmarkSearchSLO/BenchmarkSearchLookup100k>=1:p99-ns
search-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkS(earch|AD)' -benchmem -count $(SEARCH_BENCH_COUNT) -timeout 30m ./internal/searchidx | tee /dev/stderr | $(GO) run ./cmd/benchfmt -o $(SEARCH_OUT)
	$(GO) run ./cmd/benchfmt -new $(SEARCH_OUT) -ratio '$(SEARCH_RATIOS)'

# thumb-gate is the PR 10 scaled-decode gate: the psp thumbnail serving
# benchmarks (cold full path vs the coefficient-warm scaled-decode fast
# path, both at the canonical 1/8-scale thumbnail spec) plus the
# protect/recover allocation rows run best-of-N, and the report is
# committed as $(THUMB_OUT). benchfmt then asserts the headline guarantees
# from the report itself: the scaled-decode path serves thumbnails at
# least 5x faster than the pre-scaled-decode full path, and the megapixel
# protect+recover pipeline stays inside the allocation budget published by
# BenchmarkProtectRecoverAllocSLO.
THUMB_OUT ?= BENCH_PR10.json
THUMB_BENCH_COUNT ?= 3
THUMB_RATIOS ?= BenchmarkServeTransformedCold/BenchmarkServeThumbnailCold>=5:ns/op,BenchmarkProtectRecoverAllocSLO/BenchmarkProtectRecoverPerMP>=1:allocs/op
thumb-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkServe(TransformedCold|ThumbnailCold)$$|BenchmarkServeThumbnailColdFullPath$$|BenchmarkProtectRecover' -benchmem -count $(THUMB_BENCH_COUNT) -timeout 30m . ./internal/psp | tee /dev/stderr | $(GO) run ./cmd/benchfmt -o $(THUMB_OUT)
	$(GO) run ./cmd/benchfmt -new $(THUMB_OUT) -ratio '$(THUMB_RATIOS)'

# profile captures CPU and allocation pprof profiles of the two hot paths —
# the protect/recover pipeline (paper Table 1 workload) and the streaming
# batch upload route — and prints the CPU top for each. Inspect further with
#   go tool pprof $(PROFILE_DIR)/protect.cpu.prof
PROFILE_DIR ?= profiles
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkTable1Capabilities' -benchtime 2s \
		-cpuprofile $(PROFILE_DIR)/protect.cpu.prof -memprofile $(PROFILE_DIR)/protect.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkUploadBatch$$' -benchtime 2s \
		-cpuprofile $(PROFILE_DIR)/batch.cpu.prof -memprofile $(PROFILE_DIR)/batch.mem.prof ./internal/psp/
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/protect.cpu.prof
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/batch.cpu.prof

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# check also runs the perfbench module's tests: the benchmark is its own
# module, so `go test ./...` never compiles it against the psp/cluster API.
check: fmt
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd perfbench && $(GO) test -count=1 .
	$(MAKE) race
	$(MAKE) cluster-e2e
	$(MAKE) load-gate
	$(MAKE) search-gate
	$(MAKE) thumb-gate
	$(MAKE) fuzz-smoke
