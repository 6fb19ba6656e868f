package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/sched"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/testbed"
)

// benchSchema is the current report schema. Version 10 deletes the five
// fast-trig micro rows (EvalAtRFast, Profile2DRFast, Profile2DQFast,
// Profile3DCoarseParallelFast, FindPeak2DRFast) together with the fast
// kernel, and the LoadLocate2D*, StreamLocate2D and LoadLocate2DStream*
// rows now run on the exact kernel every locator uses (variants load/exact
// and tail/exact instead of load/fast and tail/fast), so their ns/op does
// not compare with version-9 reports. Version 9 keeps every
// version-8 row name, but the StreamLocate2D and LoadLocate2DStream rows
// changed input: they stream the full-length session instead of one strided
// to 64 reads per tag, and the streaming finalize runs the batch search on
// prepared terms, so the stream rows' speedupVsBatch sits near 1 and their
// ns/op does not compare with version-8 reports. Version 8 keeps every
// version-7 row and adds the non-uniform-grid rows: DenseLocateNU2D /
// NUFFTLocate2D — the KindQ angle-grid coarse-scan pair on a jittered
// 720-cell grid over a jittery-actuator Gen2 session, the NUFFT row (named
// for the route it first timed; it now times the synthesized angle-grid
// route) carrying speedupVsBatch against its dense baseline and gated at
// nufftMinSpeedup — DenseLocateNUR / NUFFTLocateR, the KindR pair
// (reported, ungated), and the estimator-backend streaming load A/B
// (LoadLocate2DStream/ml/K=<k> next to the schema-4
// LoadLocate2DStream/K=<k> rows). Version 7 keeps every
// version-6 row and adds the all-cells rows: LocateR/SubLinLocateR — the
// KindR coarse-scan pair mirroring schema 6's Locate2D/SubLinLocate2D, the
// SubLin row carrying speedupVsBatch against its dense baseline and gated at
// subLinRMinSpeedup — and the full-profile pairs
// DenseProfile2D/{Q,R} + AllCellsProfile2D/{Q,R} and
// DenseProfile3D/{Q,R} + AllCellsProfile3D/{Q,R}, timing the dense profile
// scans against the harmonic synthesis
// (Profile2DIntoSynth/Profile3DSynth), the AllCells 2D/Q pair gated at
// allCellsMinSpeedup. Version 6 added the sub-linear coarse-scan rows —
// Locate2D/SubLinLocate2D and Locate3D/SubLinLocate3D, coarse-only peak
// searches pairing each dense grid scan with its harmonic synthesis
// replacement, the SubLin rows carrying speedupVsBatch against their dense
// baseline (schema-8 reports add the KindR 3D pair LocateR3D /
// SubLinLocateR3D, whose floor only bench-compare checks) — plus the
// estimator-backend load A/B (LoadLocate2D/ml/K=<k> next to the schema-3
// LoadLocate2D/K=<k> rows). Version 5 added the
// solve-backend A/B rows — MLLocate2D/{grid,ml}
// and MLLocate3D/{grid,ml}, full Locate calls through the bearing-grid and
// joint maximum-likelihood estimators over identical observations, each
// carrying a meanErrM accuracy field — plus the report-level `rebaselined`
// marker written by `-rebaseline` (a fresh measurement of the current tree
// replacing a baseline taken on different hardware, so bench-compare deltas
// reflect code rather than environment drift). Version 4 added the streaming
// rows: StreamLocate2D/<kind>/{batch, stream} pairs measuring
// last-snapshot-to-answer latency (the stream row carries speedupVsBatch),
// and LoadLocate2DStream/K=<k> throughput rows for the full streaming
// pipeline. Version 3 added concurrent-load rows
// (LoadLocate2D/K=<k>: K simultaneous Locate2D pipelines on the shared
// compute pool, with aggregate locates/sec, p50/p99 latency, and the trig
// plan-cache hit rate). Version 2 added provenance — runtime.NumCPU at
// report level, per-benchmark GOMAXPROCS and an engine-variant label.
// Version 1 files (report-level GoMaxProcs only, no variants) still parse:
// rows without a goMaxProcs fall back to the report-level value, and the
// load-only fields are simply absent from older rows.
//
// The sub-linear, all-cells and NUFFT rows — every row a speedup floor
// reads, on both sides of the ratio — run at GOMAXPROCS 1 with one compute
// pool worker, so a floor compares algorithms rather than how many cores
// the dense baseline could spread over.
const benchSchema = "tagspin-bench/10"

// benchResult is one benchmark row of the machine-readable report.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	// GoMaxProcs is the GOMAXPROCS this row was measured at (schema 2+;
	// zero in schema-1 files, meaning the report-level value).
	GoMaxProcs int `json:"goMaxProcs,omitempty"`
	// Variant labels the engine path: "serial", "parallel", or "load"
	// machinery × "exact" or (schemas 2–9) "fast" trig kernel (schema 2+).
	Variant string `json:"variant,omitempty"`
	// Concurrency is the number of simultaneous locate pipelines for a
	// load row (schema 3+; zero on micro rows).
	Concurrency int `json:"concurrency,omitempty"`
	// LocatesPerSec is the aggregate completed-locate throughput across
	// all Concurrency streams (schema 3+, load rows only).
	LocatesPerSec float64 `json:"locatesPerSec,omitempty"`
	// P50Ns and P99Ns are per-locate latency percentiles in nanoseconds
	// (schema 3+, load rows only; NsPerOp is the mean).
	P50Ns float64 `json:"p50Ns,omitempty"`
	P99Ns float64 `json:"p99Ns,omitempty"`
	// PlanCacheHitRate is the trig plan-cache hit rate over the row's run,
	// cache reset at row start (schema 3+, load rows only).
	PlanCacheHitRate float64 `json:"planCacheHitRate,omitempty"`
	// SpeedupVsBatch is how many times lower this row's latency is than its
	// paired batch/dense row (schema 4+ StreamLocate2D/*/stream rows;
	// schema 6+ SubLinLocate2D/3D rows, against Locate2D/3D, and
	// SubLinLocateR3D against LocateR3D; schema 7+
	// SubLinLocateR and AllCellsProfile2D/3D rows, against their Dense pair).
	SpeedupVsBatch float64 `json:"speedupVsBatch,omitempty"`
	// MeanErrM is the mean localization error in meters over the row's
	// accuracy sweep (schema 5+, MLLocate rows only).
	MeanErrM float64 `json:"meanErrM,omitempty"`
}

// benchReport is the BENCH_N.json envelope. The schema string is versioned
// so future PRs can extend the format without breaking trajectory tooling.
type benchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"goVersion"`
	// NumCPU is runtime.NumCPU on the measuring machine (schema 2+): the
	// ceiling any parallel speedup could have had.
	NumCPU int `json:"numCPU,omitempty"`
	// GoMaxProcs is the report-wide setting in schema-1 files; schema 2
	// records it per row and sets this to the value main ran under.
	GoMaxProcs int `json:"goMaxProcs"`
	// Rebaselined marks a report written by -rebaseline: a fresh
	// measurement of the current tree replacing a baseline file recorded
	// on different hardware (schema 5+). bench-compare calls it out so a
	// same-container diff isn't mistaken for a historical one.
	Rebaselined bool          `json:"rebaselined,omitempty"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

// benchFewIters is the iteration count below which a micro row's ns/op is
// treated as too few-sample to trust from one testing.Benchmark run and is
// re-measured best-of-3 (min). Rows above it run enough iterations that
// host-load noise averages out within a single run.
const benchFewIters = 10

// benchCase is one entry of the micro-benchmark suite.
type benchCase struct {
	name    string
	variant string
	// procsSensitive marks benchmarks whose op fans out over GOMAXPROCS
	// workers; only these are re-measured at each GOMAXPROCS setting.
	procsSensitive bool
	fn             func(b *testing.B)
}

// benchProcs returns the deduplicated GOMAXPROCS settings to measure at:
// 1 (serial floor) and NumCPU (full machine).
func benchProcs() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// writeBenchJSON measures the spectrum hot paths with testing.Benchmark and
// writes the results (ns/op, allocs/op, provenance) as JSON, giving future
// PRs a machine-readable perf trajectory for the evaluation engine.
//
// Benchmark names are stable across schema versions so bench-compare can
// diff reports: EvalAtQ/EvalAtR are the single-candidate exact paths,
// Profile2DR and Profile3DCoarse{Serial,Parallel} the grid scans, and
// FindPeak2DR the full peak search (since schema 2 measured on a prebuilt
// Evaluator, which is the serving-path shape).
// rebaselined additionally stamps the report as a -rebaseline product.
func writeBenchJSON(path string, rebaselined bool) error {
	rng := rand.New(rand.NewSource(9))
	sc := testbed.DefaultScenario(0, rng)
	sc.Installs = sc.Installs[:1]
	sc.PlaceReader(geom.V3(-2.2, 1.3, 0))
	col, err := sc.Collect(rng)
	if err != nil {
		return err
	}
	snaps := col.Obs[sc.Installs[0].Tag.EPC]
	phase.SortByTime(snaps)
	params := spectrum.Params{Disk: sc.Installs[0].Disk}

	evQ, err := spectrum.NewEvaluator(snaps, params, spectrum.KindQ)
	if err != nil {
		return err
	}
	evR, err := spectrum.NewEvaluator(snaps, params, spectrum.KindR)
	if err != nil {
		return err
	}
	angles := spectrum.UniformAngles(720)
	coarseAz := spectrum.UniformAngles(180)
	coarsePol := mathx.Linspace(-math.Pi/2, math.Pi/2, 91)

	var sink float64
	evalAt := func(ev *spectrum.Evaluator) func(b *testing.B) {
		return func(b *testing.B) {
			sc := ev.NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = ev.EvalAt(sc, float64(i)*0.001, 0.1)
			}
		}
	}
	profile2D := func(ev *spectrum.Evaluator) func(b *testing.B) {
		return func(b *testing.B) {
			var prof spectrum.Profile
			ev.Profile2DInto(&prof, angles) // warm the profile and pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Profile2DInto(&prof, angles)
			}
		}
	}
	profile3D := func(ev *spectrum.Evaluator) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev.Profile3D(coarseAz, coarsePol)
			}
		}
	}
	findPeak2D := func(ev *spectrum.Evaluator) func(b *testing.B) {
		return func(b *testing.B) {
			spectrum.FindPeak2DEval(ev, spectrum.SearchOptions{}) // warm pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				az, pow := spectrum.FindPeak2DEval(ev, spectrum.SearchOptions{})
				sink = az + pow
			}
		}
	}

	benches := []benchCase{
		{"EvalAtQ", "serial/exact", false, evalAt(evQ)},
		{"EvalAtR", "serial/exact", false, evalAt(evR)},
		{"Profile2DR", "parallel/exact", true, profile2D(evR)},
		{"Profile3DCoarseSerial", "serial/exact", false, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evR.Profile3DSerial(coarseAz, coarsePol)
			}
		}},
		{"Profile3DCoarseParallel", "parallel/exact", true, profile3D(evR)},
		{"FindPeak2DR", "parallel/exact", true, findPeak2D(evR)},
	}

	report := benchReport{
		Schema:      benchSchema,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Rebaselined: rebaselined,
	}
	prevProcs := runtime.GOMAXPROCS(0)
	prevWorkers := sched.Workers()
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		sched.SetWorkers(prevWorkers)
	}()
	for _, procs := range benchProcs() {
		// The scheduler's width is what the "parallel" dense rows
		// actually measure; keep it in lockstep with GOMAXPROCS so
		// procs=1 rows are genuinely serial (sched.Run runs every chunk
		// on the caller at width 1).
		runtime.GOMAXPROCS(procs)
		sched.SetWorkers(procs)
		for _, bench := range benches {
			if procs != 1 && !bench.procsSensitive {
				continue // serial ops don't change with GOMAXPROCS
			}
			res := testing.Benchmark(bench.fn)
			// A row whose op costs hundreds of ms fits only a handful of
			// iterations in testing.Benchmark's budget, so its ns/op is a
			// mean of ~3 samples and wobbles ±20% with host load while
			// high-iteration rows self-average. Re-measure such rows and
			// keep the fastest run — the minimum estimates the noise-free
			// cost, the same policy the gated all-cells rows use.
			if !raceEnabled && res.N < benchFewIters {
				for rep := 0; rep < 2; rep++ {
					r := testing.Benchmark(bench.fn)
					if float64(r.T.Nanoseconds())*float64(res.N) < float64(res.T.Nanoseconds())*float64(r.N) {
						res = r
					}
				}
			}
			report.Benchmarks = append(report.Benchmarks, benchResult{
				Name:        bench.name,
				Iterations:  res.N,
				NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				GoMaxProcs:  procs,
				Variant:     bench.variant,
			})
			fmt.Fprintf(os.Stderr, "tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op %6d allocs/op\n",
				bench.name, bench.variant, procs,
				float64(res.T.Nanoseconds())/float64(res.N), res.AllocsPerOp())
		}
	}
	_ = sink
	// Concurrent-load rows run at full width after the micro sweep.
	runtime.GOMAXPROCS(prevProcs)
	sched.SetWorkers(prevWorkers)
	loadRows, err := loadBenchRows()
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, loadRows...)
	streamRows, err := streamBenchRows()
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, streamRows...)
	mlRows, err := mlBenchRows()
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, mlRows...)
	// The speedup-gated pairs run serial (see benchSchema); the deferred
	// restore puts the width back.
	runtime.GOMAXPROCS(1)
	sched.SetWorkers(1)
	for _, gated := range []func() ([]benchResult, error){subLinBenchRows, allCellsBenchRows, nufftBenchRows} {
		rows, err := gated()
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, rows...)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
