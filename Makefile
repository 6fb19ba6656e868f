GO ?= go
GOFMT ?= gofmt

.PHONY: check build fmt-check doc-idents test race vet vet-strict bench bench-json bench-compare accuracy accuracy-compare run-fleet

.DEFAULT_GOAL := check

# check is the default tier-1 gate: build, fmt-check, vet-strict (vet plus the
# bounds-check-elimination spot check on the spectrum hot loops),
# doc-idents (no stale backticked identifier in DESIGN.md or README.md), the
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
# out to helpers even on a 1-CPU machine. The last pass runs on one CPU the
# batch tests, where a GOMAXPROCS-sized default would run batch items one at
# a time, and the core pass-loop tests: estimateAll's per-tag fan-out is a
# locate's only parallelism, so the solve count, both stops and
# mid-locate cancellation must hold when every tag's search shares one CPU.
check: build fmt-check vet-strict doc-idents
	cd bench && $(GO) test ./...
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestSched|TestPooled|TestPlanCache|TestGoldenTraces' ./internal/sched/ ./internal/spectrum/ ./internal/trace/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSched|TestPooled|TestPlanCache|TestGoldenTraces' ./internal/sched/ ./internal/spectrum/ ./internal/trace/
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestFindPeakEvalZeroAllocs|TestSchedRunZeroAllocs' ./internal/spectrum/ ./internal/sched/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestAccumulator|TestStream' ./internal/spectrum/ ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestReroute|TestKill|TestDrain|TestHealth|TestRing' ./internal/coord/ ./internal/locsrv/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestLocateBatch|TestRequestTimeoutCancelsStalledBatchItem|TestPassLoop' ./internal/locsrv/ ./internal/core/

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
# kernels and harmonicArgmax3D, the one coarse argmax of both peak
# searches; harmonic.go folds and synthesis) are written so the compiler
# can prove every index in range, and scripts/check-bce.sh fails if a
# bounds check creeps back in (DESIGN.md §13 documents the layout rules
# the script enforces).
vet-strict: vet
	sh scripts/check-bce.sh

# doc-idents fails when a backticked Go-style identifier in DESIGN.md or
# README.md names nothing in the repository's Go, shell, Makefile or JSON
# text and no file: a deleted name's history belongs in CHANGES.md.
doc-idents:
	sh scripts/check-doc-idents.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/spectrum/

# bench-json regenerates the machine-readable perf snapshot consumed by
# trajectory tooling (see cmd/tagspin-bench) and writes it to
# BENCH_<n>.json, n read from the benchSchema constant, so a schema bump
# names a new file instead of overwriting a recorded one: schema
# tagspin-bench/16 —
# micro rows on the exact kernel, concurrent-load rows (K simultaneous
# Locate2D pipelines in one process, grid and ml solve backends) with
# plan-cache hit rates, the streaming rows (StreamLocate2D tail-latency
# pairs over the full-length session, LoadLocate2DStream throughput), the
# MLLocate2D/3D grid-vs-ml solve-backend A/B rows with meanErrM and
# solvesPerLocate (timed as the median of alternating grid/ml rep pairs at
# GOMAXPROCS 1), and the
# sub-linear coarse-scan pairs against their dense baselines:
# SubLinLocate2D (≥5x floor), SubLinLocate3D, SubLinLocateR (≥4x floor,
# the median of alternating dense/sub-linear rep pairs) and SubLinLocateR3D
# (≥4x floor, checked by bench-compare), and the MLSolve2D/3D rows timing
# the joint-ML solve alone, and the RefineR2D/3D rows timing R refinement
# alone (the median of alternating full/coarse-only rep pairs at
# GOMAXPROCS 1, with the polish's EvalAt calls per refine and its
# fallbacks) beside the CoarseR2D/3D rows timing the R coarse scan alone
# (the median coarse-only half of the same pairs). The run fails when SubLinLocate2D or SubLinLocateR falls
# below its floor.
BENCH_SCHEMA := $(shell sed -n 's|^const benchSchema = "tagspin-bench/\([0-9]*\)"$$|\1|p' cmd/tagspin-bench/benchjson.go)
bench-json:
	@test -n "$(BENCH_SCHEMA)" || { echo "bench-json: no benchSchema in cmd/tagspin-bench/benchjson.go" >&2; exit 1; }
	$(GO) run ./cmd/tagspin-bench -benchjson BENCH_$(BENCH_SCHEMA).json

# bench-compare diffs the two newest BENCH_<n>.json snapshots and fails on
# any >30% ns/op regression — the pre-merge perf gate for the spectrum
# engine. `make bench-compare REBASELINE=1` first re-measures the baseline
# snapshot (the older of the two newest) on this machine, marking it
# `rebaselined: true` — separating container drift from real regressions
# when the baseline came from different hardware.
bench-compare:
ifdef REBASELINE
	$(GO) run ./cmd/tagspin-bench -rebaseline auto
endif
	$(GO) run ./cmd/tagspin-bench -benchcompare auto

# accuracy re-runs the F10a, F10b, F11b and X2 trials on the fixed seeds
# in cmd/tagspin-bench/accuracy.go and rewrites ACCURACY.json with every
# trial's localization error. The same seed draws the same session on any
# tree, so two such files pair trial by trial.
accuracy:
	$(GO) run ./cmd/tagspin-bench -accuracy ACCURACY.json

# accuracy-compare is the paired accuracy gate: it pairs the ACCURACY.json
# committed at BASE (default HEAD) with the working tree's, prints each
# arm's identical/worse/better counts and mean, p50 and p90 error deltas,
# lists every trial that moved more than 1 cm, and fails when an arm lost
# accuracy. Run `make accuracy` first to measure the working tree.
BASE ?= HEAD
accuracy-compare:
	git show $(BASE):ACCURACY.json > .accuracy_base.json
	$(GO) run ./cmd/tagspin-bench -accuracycompare .accuracy_base.json,ACCURACY.json

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
