package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tagspin/tagspin/internal/experiment"
)

func TestListAndSelect(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
	// T1 is static and instant; a tiny F4 exercises the harness path.
	if err := run([]string{"-run", "T1,F4", "-trials", "2"}); err != nil {
		t.Fatalf("-run: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "F99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestBenchJSON smoke-runs the machine-readable perf report end to end at
// a short bench time: the file must parse, carry every expected benchmark
// with provenance, and show the zero-alloc steady state of the evaluation
// engine. The speedup floors are not checked here — a few iterations carry
// no ratio — but by make bench-json at full bench time and by bench-compare
// on the recorded report.
func TestBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks take seconds")
	}
	prevTime := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "20ms"); err != nil {
		t.Fatal(err)
	}
	benchSmoke = true
	defer func() {
		benchSmoke = false
		if err := flag.Set("test.benchtime", prevTime); err != nil {
			t.Error(err)
		}
	}()
	path := filepath.Join(t.TempDir(), "BENCH_2.json")
	if err := run([]string{"-benchjson", path}); err != nil {
		t.Fatalf("-benchjson: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if report.Schema != benchSchema {
		t.Errorf("schema = %q, want %q", report.Schema, benchSchema)
	}
	if report.NumCPU <= 0 {
		t.Errorf("numCPU = %d, want > 0", report.NumCPU)
	}
	rows := map[string]benchResult{}
	for _, b := range report.Benchmarks {
		if b.Iterations <= 0 || b.NsPerOp <= 0 {
			t.Errorf("benchmark %s has empty measurements: %+v", b.Name, b)
		}
		if b.GoMaxProcs <= 0 {
			t.Errorf("benchmark %s lacks per-row GOMAXPROCS: %+v", b.Name, b)
		}
		if b.Variant == "" {
			t.Errorf("benchmark %s lacks a variant label", b.Name)
		}
		if b.GoMaxProcs == 1 {
			rows[b.Name] = b
		}
	}
	for _, name := range []string{
		"EvalAtQ", "EvalAtR",
		"Profile2DR",
		"Profile3DCoarseSerial", "Profile3DCoarseParallel",
		"FindPeak2DR",
		"MLSolve2D", "MLSolve3D",
		"RefineR2D", "RefineR3D", "CoarseR2D", "CoarseR3D",
		"MLLocate2D/grid", "MLLocate2D/ml", "MLLocate3D/grid", "MLLocate3D/ml",
	} {
		if _, ok := rows[name]; !ok {
			t.Errorf("missing benchmark %q at GOMAXPROCS=1", name)
		}
	}
	for _, name := range []string{"RefineR2D", "RefineR3D"} {
		if b, ok := rows[name]; ok && (b.EvalsPerRefine <= 0 || b.PolishFallbacks == nil) {
			t.Errorf("%s lacks its polish counts: %+v", name, b)
		}
	}
	// The MLLocate fixtures are calibrated: a bootstrap plus one to three
	// correction passes, each one solve.
	for _, name := range []string{"MLLocate2D/grid", "MLLocate2D/ml", "MLLocate3D/grid", "MLLocate3D/ml"} {
		if b, ok := rows[name]; ok && (b.SolvesPerLocate < 2 || b.SolvesPerLocate > 4) {
			t.Errorf("%s solvesPerLocate = %d, want 2..4", name, b.SolvesPerLocate)
		}
	}
	// The acceptance property of the evaluation engine: steady-state
	// candidate evaluations, whole profile scans, and whole peak searches
	// allocate nothing.
	if raceEnabled {
		t.Log("race-detector instrumentation allocates; skipping 0-alloc assertions")
		return
	}
	for _, name := range []string{"EvalAtQ", "EvalAtR", "Profile2DR", "FindPeak2DR"} {
		if b, ok := rows[name]; ok && b.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d per op, want 0", name, b.AllocsPerOp)
		}
	}
}

// writeReport marshals a report to dir/name for the compare tests.
func writeReport(t *testing.T, dir, name string, report benchReport) string {
	t.Helper()
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchCompare pins the regression gate: schema-1 files must still
// parse (their rows inherit the report-level GOMAXPROCS), improvements and
// runner-noise wobbles pass, and a slowdown past regressionTolerance
// fails.
func TestBenchCompare(t *testing.T) {
	dir := t.TempDir()
	v1 := benchReport{
		Schema:     "tagspin-bench/1",
		GoVersion:  "go1.24.0",
		GoMaxProcs: 1,
		Benchmarks: []benchResult{
			{Name: "EvalAtR", Iterations: 100, NsPerOp: 20000},
			{Name: "Profile2DR", Iterations: 100, NsPerOp: 13_000_000},
			{Name: "Retired", Iterations: 100, NsPerOp: 1000},
		},
	}
	improved := benchReport{
		Schema:     benchSchema,
		GoVersion:  "go1.24.0",
		NumCPU:     1,
		GoMaxProcs: 1,
		Benchmarks: []benchResult{
			{Name: "EvalAtR", Iterations: 100, NsPerOp: 25000, GoMaxProcs: 1, Variant: "serial/exact"}, // +25%: inside the drift-calibrated tolerance
			{Name: "Profile2DR", Iterations: 100, NsPerOp: 9_000_000, GoMaxProcs: 1, Variant: "parallel/exact"},
			{Name: "Profile3DCoarseParallel", Iterations: 100, NsPerOp: 4_000_000, GoMaxProcs: 1, Variant: "parallel/exact"}, // new: never gates
		},
	}
	oldPath := writeReport(t, dir, "BENCH_1.json", v1)
	newPath := writeReport(t, dir, "BENCH_2.json", improved)
	if err := compareBenchJSON(oldPath + "," + newPath); err != nil {
		t.Errorf("improvement flagged as regression: %v", err)
	}

	regressed := improved
	regressed.Benchmarks = []benchResult{
		{Name: "EvalAtR", Iterations: 100, NsPerOp: 40000, GoMaxProcs: 1, Variant: "serial/exact"}, // +100% vs BENCH_1, +60% vs BENCH_2
		{Name: "Profile2DR", Iterations: 100, NsPerOp: 9_000_000, GoMaxProcs: 1, Variant: "parallel/exact"},
	}
	regPath := writeReport(t, dir, "BENCH_3.json", regressed)
	err := compareBenchJSON(oldPath + "," + regPath)
	if err == nil {
		t.Fatal("100% regression passed the gate")
	}
	if !strings.Contains(err.Error(), "EvalAtR") {
		t.Errorf("regression error does not name the benchmark: %v", err)
	}

	// p99 rows gate at the wider p99Tolerance, not the mean's 10%:
	// order-statistic jitter passes, a genuine tail blowup fails. (The
	// file names stay outside the BENCH_<n>.json pattern so the auto
	// discovery below still picks 2 vs 3.)
	loadRow := func(p99 float64) benchReport {
		return benchReport{
			Schema:     benchSchema,
			GoMaxProcs: 1,
			Benchmarks: []benchResult{{
				Name: "LoadLocate2D/K=1", Iterations: 100, NsPerOp: 2_000_000,
				GoMaxProcs: 1, LocatesPerSec: 480, P99Ns: p99,
			}},
		}
	}
	loadOld := writeReport(t, dir, "LOAD_OLD.json", loadRow(4_000_000))
	jitter := writeReport(t, dir, "LOAD_JITTER.json", loadRow(5_200_000)) // p99 +30%
	blowup := writeReport(t, dir, "LOAD_BLOWUP.json", loadRow(9_000_000)) // p99 +125%
	if err := compareBenchJSON(loadOld + "," + jitter); err != nil {
		t.Errorf("p99 jitter inside p99Tolerance flagged as regression: %v", err)
	}
	if err := compareBenchJSON(loadOld + "," + blowup); err == nil {
		t.Error("p99 tail blowup passed the gate")
	}

	// Auto-discovery picks the two highest-numbered files (2 vs 3 here):
	// both parse, Profile2DR matches, EvalAtR regressed.
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()
	if err := compareBenchJSON("auto"); err == nil {
		t.Error("auto compare missed the BENCH_2 -> BENCH_3 regression")
	}

	if err := compareBenchJSON("nope"); err == nil {
		t.Error("malformed spec accepted")
	}
}

// TestNewestBenchFile pins -rebaseline auto's target resolution: the
// highest-numbered BENCH_<n>.json in the directory.
func TestNewestBenchFile(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_3.json", "BENCH_10.json", "BENCH_9.json", "notes.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := newestBenchFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_10.json"); got != want {
		t.Errorf("newestBenchFile = %q, want %q", got, want)
	}
	if _, err := newestBenchFile(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestBenchCompareRebaselinedMarker verifies a report stamped by
// -rebaseline round-trips and still compares cleanly: the marker is
// informational, not a schema break.
func TestBenchCompareRebaselinedMarker(t *testing.T) {
	dir := t.TempDir()
	base := benchReport{
		Schema:      benchSchema,
		GoVersion:   "go1.24.0",
		NumCPU:      1,
		GoMaxProcs:  1,
		Rebaselined: true,
		Benchmarks: []benchResult{
			{Name: "EvalAtR", Iterations: 100, NsPerOp: 20000, GoMaxProcs: 1, Variant: "serial/exact"},
			{Name: "MLLocate2D/ml", Iterations: 10, NsPerOp: 5_000_000, GoMaxProcs: 1, Variant: "ml", MeanErrM: 0.05},
		},
	}
	next := base
	next.Rebaselined = false
	oldPath := writeReport(t, dir, "BENCH_5.json", base)
	newPath := writeReport(t, dir, "BENCH_6.json", next)
	if err := compareBenchJSON(oldPath + "," + newPath); err != nil {
		t.Errorf("rebaselined baseline failed to compare: %v", err)
	}
	parsed, err := readBenchReport(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Rebaselined {
		t.Error("rebaselined marker lost in round-trip")
	}
	if parsed.Benchmarks[1].MeanErrM != 0.05 {
		t.Errorf("meanErrM lost: %+v", parsed.Benchmarks[1])
	}
}

// TestBenchCompareNewRowsWarnNotFail pins the cross-schema contract the
// fleet rows depend on: a newer report whose rows are entirely absent from
// an older baseline — even rows with dreadful numbers — warns but never
// fails the gate. Older baselines simply predate new rows; gating them
// would force every schema addition through a rebaseline.
func TestBenchCompareNewRowsWarnNotFail(t *testing.T) {
	dir := t.TempDir()
	base := benchReport{
		Schema:     "tagspin-bench/1",
		GoVersion:  "go1.24.0",
		GoMaxProcs: 1,
		Benchmarks: []benchResult{
			{Name: "EvalAtR", Iterations: 100, NsPerOp: 20000},
		},
	}
	next := benchReport{
		Schema:     benchSchema,
		GoVersion:  "go1.24.0",
		NumCPU:     1,
		GoMaxProcs: 1,
		Benchmarks: []benchResult{
			// One stable row keeps the compare valid (an empty intersection
			// is its own error); the fleet rows don't match the baseline and
			// carry deliberately outrageous ns/op so an accidental gate
			// would trip loudly.
			{Name: "EvalAtR", Iterations: 100, NsPerOp: 20000, GoMaxProcs: 1, Variant: "serial/exact"},
			{Name: "FleetLocate2D", Iterations: 1, NsPerOp: 9e12, GoMaxProcs: 1, Variant: "fleet"},
			{Name: "FleetLocateBatch", Iterations: 1, NsPerOp: 9e12, GoMaxProcs: 4, Variant: "fleet"},
		},
	}
	oldPath := writeReport(t, dir, "BENCH_1.json", base)
	newPath := writeReport(t, dir, "BENCH_2.json", next)
	if err := compareBenchJSON(oldPath + "," + newPath); err != nil {
		t.Errorf("rows absent from the baseline gated the compare: %v", err)
	}
}

// TestAccuracyExperimentsReportErrors pins what the accuracy gate reads:
// every experiment it records reports one error per trial for every arm.
func TestAccuracyExperimentsReportErrors(t *testing.T) {
	for _, id := range accuracyExperiments {
		r, err := experiment.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(experiment.Options{Seed: 1, Trials: 2})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Errors) == 0 {
			t.Fatalf("%s reports no per-trial errors", id)
		}
		for arm, errs := range res.Errors {
			if len(errs) != 2 {
				t.Errorf("%s/%s: %d errors for 2 trials", id, arm, len(errs))
			}
		}
	}
}

// TestAccuracyCompare pins the gate's verdicts on paired reports: equal
// reports pass, a shifted arm fails, a one-trial outlier alone does not
// fail it, a run that failed only in the new report fails it, and reports
// on different seeds do not compare.
func TestAccuracyCompare(t *testing.T) {
	dir := t.TempDir()
	base := make([]float64, 40)
	for i := range base {
		base[i] = 0.02 + 0.001*float64(i%7)
	}
	files := 0
	report := func(shift func(i int) float64, runErr string, seed int64) string {
		errs := make([]float64, len(base))
		for i, e := range base {
			errs[i] = e + shift(i)
		}
		run := accuracyRun{Experiment: "F10a", Seed: seed, Arms: map[string][]float64{"combined": errs}}
		if runErr != "" {
			run = accuracyRun{Experiment: "F10a", Seed: seed, Error: runErr}
		}
		data, err := json.Marshal(accuracyReport{Schema: accuracySchema, Runs: []accuracyRun{run}})
		if err != nil {
			t.Fatal(err)
		}
		files++
		path := filepath.Join(dir, fmt.Sprintf("acc%d.json", files))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	zero := func(int) float64 { return 0 }
	old := report(zero, "", 0)
	cases := []struct {
		name    string
		newPath string
		fail    bool
	}{
		{"identical", report(zero, "", 0), false},
		{"shifted 5 mm", report(func(int) float64 { return 0.005 }, "", 0), true},
		{"better by 5 mm", report(func(int) float64 { return -0.005 }, "", 0), false},
		{"one 3 m outlier", report(func(i int) float64 {
			if i == 3 {
				return 3
			}
			return 0
		}, "", 0), false},
		{"run failed", report(zero, "trial 3: solve 2d: no bearings", 0), true},
	}
	for _, c := range cases {
		var out strings.Builder
		err := compareAccuracy(old+","+c.newPath, &out)
		if (err != nil) != c.fail {
			t.Errorf("%s: compare error %v, want failure %v\n%s", c.name, err, c.fail, out.String())
		}
	}
	if err := compareAccuracy(old+","+report(zero, "", 1), io.Discard); err == nil {
		t.Error("reports on different seeds compared")
	}
}
