GO ?= go
GOFMT ?= gofmt

.PHONY: check build fmt-check test race vet vet-strict bench bench-json bench-load bench-stream bench-sublin bench-nufft bench-compare run-fleet

.DEFAULT_GOAL := check

# check is the default tier-1 gate: build, fmt-check, vet-strict (vet plus the
# bounds-check-elimination spot check on the spectrum hot loops), the
# benchmark module's tests (bench/ is its own module, which `go test ./...`
# never builds, yet it calls the spectrum, core and locsrv APIs), and the
# full test suite under the race detector — the
# collection pipeline's retry/cancellation paths are all concurrent. The
# two pinned-GOMAXPROCS passes re-run the dense-scan scheduler,
# pooled-scan equivalence, plan-cache and golden-trace tests at the
# scheduling extremes (single-threaded runtime vs 4-way) to catch
# regressions that only show under a particular helper/CPU ratio; the
# golden traces pin that answers stay bit-identical at both.
# TestFindPeakEvalZeroAllocs skips under the race detector, so a non-race
# GOMAXPROCS=4 pass runs it and TestSchedRunZeroAllocs with chunks fanned
# out to helpers even on a 1-CPU machine. The last pass runs the batch tests on one CPU, where a
# GOMAXPROCS-sized default would run batch items one at a time.
check: build fmt-check vet-strict
	cd bench && $(GO) test ./...
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestSched|TestPooled|TestPlanCache|TestGoldenTraces' ./internal/sched/ ./internal/spectrum/ ./internal/trace/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSched|TestPooled|TestPlanCache|TestGoldenTraces' ./internal/sched/ ./internal/spectrum/ ./internal/trace/
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestFindPeakEvalZeroAllocs|TestSchedRunZeroAllocs' ./internal/spectrum/ ./internal/sched/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestAccumulator|TestStream' ./internal/spectrum/ ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestReroute|TestKill|TestDrain|TestHealth|TestRing' ./internal/coord/ ./internal/locsrv/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestLocateBatch|TestRequestTimeoutCancelsStalledBatchItem' ./internal/locsrv/

build:
	$(GO) build ./...

# fmt-check fails when gofmt would change any Go file in the repository,
# the bench module included, and lists the files.
fmt-check:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt: unformatted files:" >&2; echo "$$out" >&2; exit 1; fi

test:
	$(GO) test ./...

# race is the pre-merge gate for the parallel spectrum/locator paths:
# vet plus the full test suite under the race detector.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# vet-strict is vet plus the bounds-check-elimination spot check: the SoA
# hot loops in internal/spectrum (allcells.go synthesis and weighting
# kernels, harmonic.go folds and synthesis) are written
# so the compiler can prove every index in range, and
# scripts/check-bce.sh fails if a bounds check creeps back in (DESIGN.md
# §13 documents the layout rules the script enforces).
vet-strict: vet
	sh scripts/check-bce.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/spectrum/

# bench-json regenerates the machine-readable perf snapshot consumed by
# trajectory tooling (see cmd/tagspin-bench): schema tagspin-bench/10 —
# micro rows (exact kernel only since schema 10), concurrent-load rows (K
# simultaneous Locate2D pipelines in one process, grid and ml
# solve backends, on the exact kernel every locator runs) with plan-cache hit
# rates, the streaming rows (StreamLocate2D tail-latency pairs,
# LoadLocate2DStream throughput; since schema 9 over the full-length
# session, with a stream tail that saves only term preparation, so the
# pair's speedupVsBatch sits near 1), the MLLocate2D/3D grid-vs-ml
# solve-backend A/B rows with meanErrM, the sub-linear coarse-scan rows
# (SubLinLocate2D/3D vs their dense Locate2D/3D baselines), and the
# all-cells rows (SubLinLocateR plus the DenseProfile/AllCellsProfile 2D/3D
# pairs per kind, with their speedup floors), and the non-uniform-grid
# rows (DenseLocateNU2D/NUFFTLocate2D with the ≥3x floor on the
# synthesized angle-grid route, DenseLocateNUR/NUFFTLocateR, and the
# LoadLocate2DStream/ml estimator A/B).
bench-json:
	$(GO) run ./cmd/tagspin-bench -benchjson BENCH_10.json

# bench-load is bench-json under its serving-path name: the schema-10 report
# is where the concurrent-load rows live.
bench-load:
	$(GO) run ./cmd/tagspin-bench -benchjson BENCH_10.json

# bench-stream is bench-json under its streaming-path name: the schema-10
# report is where the StreamLocate2D/LoadLocate2DStream rows live.
bench-stream:
	$(GO) run ./cmd/tagspin-bench -benchjson BENCH_10.json

# bench-sublin is bench-json under its sub-linear-search name: the schema-10
# report is where the SubLinLocate2D/3D rows (≥5x 2D floor), the
# SubLinLocateR row (≥4x floor), the SubLinLocateR3D row (≥4x floor,
# checked by bench-compare) and the AllCellsProfile rows (≥3x floor on the
# 2D/Q pair) live.
bench-sublin:
	$(GO) run ./cmd/tagspin-bench -benchjson BENCH_10.json

# bench-nufft is bench-json under its non-uniform-grid name: the schema-10
# report is where the DenseLocateNU2D/NUFFTLocate2D pair (≥3x floor on the
# synthesized angle-grid route; the NUFFT names are kept from the route it
# replaced so bench-compare still pairs the rows) and the
# DenseLocateNUR/NUFFTLocateR pair live.
bench-nufft:
	$(GO) run ./cmd/tagspin-bench -benchjson BENCH_10.json

# bench-compare diffs the two newest BENCH_<n>.json snapshots and fails on
# any >10% ns/op regression — the pre-merge perf gate for the spectrum
# engine. `make bench-compare REBASELINE=1` first re-measures the baseline
# snapshot (the older of the two newest) on this machine, marking it
# `rebaselined: true` — separating container drift from real regressions
# when the baseline came from different hardware.
bench-compare:
ifdef REBASELINE
	$(GO) run ./cmd/tagspin-bench -rebaseline auto
endif
	$(GO) run ./cmd/tagspin-bench -benchcompare auto

# run-fleet brings up a local fleet — simulated reader, 2 locsrv replicas,
# and the tagspin-coord router — smokes a locate through the coordinator,
# prints the cluster-stats rollup, and drains everything down.
# `make run-fleet KEEP=1` leaves the fleet running until ^C.
run-fleet:
ifdef KEEP
	sh scripts/run-fleet.sh keep
else
	sh scripts/run-fleet.sh
endif
