package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// regressionTolerance is the ns/op slowdown a benchmark may show before the
// comparison fails. It is calibrated to the runner's measured same-code
// drift, not to wishful precision: two BENCH files are recorded minutes
// apart, and on a shared single-CPU runner a same-machine rebaseline
// compared against an immediate re-run of the identical binary has shown
// individual rows at +24% (EvalAtRFast) with three other rows past 10% —
// load drift on the host, with high-iteration rows affected as much as
// few-sample ones. A gate below that floor fails a random row most runs.
// 30% stays above the observed drift while still catching real
// regressions, and the accelerated paths have a far tighter guard that
// drift cannot touch: the speedupVsBatch floors compare dense and
// accelerated rows measured seconds apart inside one run.
const regressionTolerance = 0.30

// p99Tolerance is the wider gate for the load benches' p99 latency rows. A
// p99 is an order statistic of a few hundred locates, not a mean over
// b.N iterations: one scheduler stall during the run moves it tens of
// percent while the mean ns/op of the same row sits flat — on a shared
// single-CPU runner identical builds measure p99 swings of +10–80% run to
// run. The tail gate therefore trips only on genuine distribution-shape
// blowups (a lock convoy, a GC regression — 2× territory), and the mean
// gates on ns/op and locates/s keep catching uniform slowdowns.
const p99Tolerance = 0.50

// benchKey identifies a comparable measurement across reports: the stable
// benchmark name plus the GOMAXPROCS it ran under. Variant labels stay out
// of the key so schema-1 rows (which have none) line up with their schema-2
// successors.
type benchKey struct {
	name  string
	procs int
}

// readBenchReport parses a BENCH_*.json of any schema version (1 through
// 8). Schema-1 rows carry no per-row GOMAXPROCS; they inherit the
// report-level value so cross-schema keys align. Schema-3 load rows
// (concurrency, locates/sec, percentiles, plan-cache hit rate), schema-4
// streaming rows, schema-5 backend rows, schema-6 sub-linear rows,
// schema-7 all-cells rows, and schema-8 NUFFT + streaming-ml rows all
// decode into the same row struct; their extra fields are zero in older
// files.
func readBenchReport(path string) (benchReport, error) {
	var report benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return report, err
	}
	if err := json.Unmarshal(data, &report); err != nil {
		return report, fmt.Errorf("parse %s: %w", path, err)
	}
	if !strings.HasPrefix(report.Schema, "tagspin-bench/") {
		return report, fmt.Errorf("%s: unknown schema %q", path, report.Schema)
	}
	for i := range report.Benchmarks {
		if report.Benchmarks[i].GoMaxProcs == 0 {
			report.Benchmarks[i].GoMaxProcs = report.GoMaxProcs
		}
	}
	return report, nil
}

// speedupFloors maps ratio-carrying rows to the minimum speedupVsBatch the
// compare accepts; the same constants the row generators enforce at
// measurement time (SubLinLocateR3D's floor is checked here only).
var speedupFloors = map[string]float64{
	"SubLinLocate2D":      subLinMinSpeedup,
	"SubLinLocateR3D":     subLinR3DMinSpeedup,
	"SubLinLocateR":       subLinRMinSpeedup,
	"AllCellsProfile2D/Q": allCellsMinSpeedup,
	"NUFFTLocate2D":       nufftMinSpeedup,
}

var benchFilePattern = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// latestBenchFiles returns the two highest-numbered BENCH_<n>.json files in
// dir, oldest first.
func latestBenchFiles(dir string) (older, newer string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	type numbered struct {
		n    int
		path string
	}
	var found []numbered
	for _, e := range entries {
		m := benchFilePattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		found = append(found, numbered{n, filepath.Join(dir, e.Name())})
	}
	if len(found) < 2 {
		return "", "", fmt.Errorf("need two BENCH_<n>.json files in %s, found %d", dir, len(found))
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	return found[len(found)-2].path, found[len(found)-1].path, nil
}

// newestBenchFile returns the highest-numbered BENCH_<n>.json in dir.
func newestBenchFile(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := benchFilePattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		if n > bestN {
			best, bestN = filepath.Join(dir, e.Name()), n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json files in %s", dir)
	}
	return best, nil
}

// rebaselineBench re-measures the full benchmark suite on the current
// machine and overwrites the chosen baseline file, marking the report
// `rebaselined: true`. This separates environment drift from real
// regressions: when the baseline snapshot was recorded on different
// hardware, a plain compare against it gates on the container change, not
// the code change — refreshing the baseline makes the compare same-machine
// on both sides. spec is a path or "auto": the comparison baseline, i.e.
// the older of the two newest BENCH_<n>.json in the working directory
// (drift lives on the baseline side), or the single newest when only one
// exists.
func rebaselineBench(spec string) error {
	path := spec
	if spec == "auto" {
		older, _, err := latestBenchFiles(".")
		if err != nil {
			older, err = newestBenchFile(".")
			if err != nil {
				return err
			}
		}
		path = older
	}
	fmt.Fprintf(os.Stderr, "tagspin-bench: rebaselining %s on this machine\n", path)
	return writeBenchJSON(path, true)
}

// compareBenchJSON diffs two bench reports and returns an error when any
// benchmark present in both regressed by more than regressionTolerance in
// ns/op. spec is either "old.json,new.json" or "auto" (the two
// highest-numbered BENCH_<n>.json in the working directory). Benchmarks
// present on only one side — rows a newer schema added, retired paths —
// warn but never fail: an older baseline simply predates them, and gating
// would force every schema bump through a rebaseline. The SubLinLocate2D,
// SubLinLocateR, AllCellsProfile2D/Q and NUFFTLocate2D rows additionally
// gate on their recorded speedupVsBatch staying at or above their floors
// (subLinMinSpeedup, subLinRMinSpeedup, allCellsMinSpeedup,
// nufftMinSpeedup), so an accelerated path that
// silently decays toward the dense scan fails the compare even when its own
// ns/op is stable (the other ratio-carrying rows report their ratio but only
// the row generator bounds them).
func compareBenchJSON(spec string) error {
	var oldPath, newPath string
	if spec == "auto" || spec == "" {
		var err error
		oldPath, newPath, err = latestBenchFiles(".")
		if err != nil {
			return err
		}
	} else {
		parts := strings.Split(spec, ",")
		if len(parts) != 2 {
			return fmt.Errorf("benchcompare wants 'old.json,new.json' or 'auto', got %q", spec)
		}
		oldPath, newPath = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	}
	oldRep, err := readBenchReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readBenchReport(newPath)
	if err != nil {
		return err
	}
	oldRows := make(map[benchKey]benchResult, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldRows[benchKey{b.Name, b.GoMaxProcs}] = b
	}
	fmt.Printf("bench-compare: %s (%s) -> %s (%s)\n", oldPath, oldRep.Schema, newPath, newRep.Schema)
	if oldRep.Rebaselined || newRep.Rebaselined {
		sides := "old side was"
		if newRep.Rebaselined && oldRep.Rebaselined {
			sides = "both sides were"
		} else if newRep.Rebaselined {
			sides = "new side was"
		}
		fmt.Printf("bench-compare: note: %s rebaselined on this machine — deltas reflect code, not environment drift\n", sides)
	}
	var regressions []string
	matched := 0
	for _, nb := range newRep.Benchmarks {
		if floor, gated := speedupFloors[nb.Name]; gated && nb.SpeedupVsBatch > 0 && nb.SpeedupVsBatch < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s (procs=%d): %.1fx vs dense, below the %.0fx floor",
					nb.Name, nb.GoMaxProcs, nb.SpeedupVsBatch, floor))
		}
		key := benchKey{nb.Name, nb.GoMaxProcs}
		ob, ok := oldRows[key]
		if !ok {
			fmt.Printf("  %-28s procs=%-2d %12.0f ns/op  (warn: not in baseline, not gated)\n", nb.Name, nb.GoMaxProcs, nb.NsPerOp)
			continue
		}
		matched++
		delete(oldRows, key)
		change := nb.NsPerOp/ob.NsPerOp - 1
		fmt.Printf("  %-28s procs=%-2d %12.0f -> %12.0f ns/op  %+6.1f%%\n",
			nb.Name, nb.GoMaxProcs, ob.NsPerOp, nb.NsPerOp, change*100)
		if nb.LocatesPerSec > 0 && ob.LocatesPerSec > 0 {
			fmt.Printf("  %-28s          %12.1f -> %12.1f locates/s  (p99 %.2f -> %.2f ms)\n",
				"", ob.LocatesPerSec, nb.LocatesPerSec, ob.P99Ns/1e6, nb.P99Ns/1e6)
		}
		if change > regressionTolerance {
			regressions = append(regressions,
				fmt.Sprintf("%s (procs=%d): %.0f -> %.0f ns/op (%+.1f%%)",
					nb.Name, nb.GoMaxProcs, ob.NsPerOp, nb.NsPerOp, change*100))
		}
		// Load rows gate on their serving metrics too: a throughput drop or
		// a p99 tail blowup can hide behind a flat mean (ns/op) when the
		// latency distribution shifts shape.
		if nb.LocatesPerSec > 0 && ob.LocatesPerSec > 0 {
			if drop := 1 - nb.LocatesPerSec/ob.LocatesPerSec; drop > regressionTolerance {
				regressions = append(regressions,
					fmt.Sprintf("%s (procs=%d): %.1f -> %.1f locates/s (-%.1f%%)",
						nb.Name, nb.GoMaxProcs, ob.LocatesPerSec, nb.LocatesPerSec, drop*100))
			}
		}
		if nb.P99Ns > 0 && ob.P99Ns > 0 {
			if rise := nb.P99Ns/ob.P99Ns - 1; rise > p99Tolerance {
				regressions = append(regressions,
					fmt.Sprintf("%s (procs=%d): p99 %.2f -> %.2f ms (%+.1f%%)",
						nb.Name, nb.GoMaxProcs, ob.P99Ns/1e6, nb.P99Ns/1e6, rise*100))
			}
		}
	}
	for key := range oldRows {
		fmt.Printf("  %-28s procs=%-2d (only in %s)\n", key.name, key.procs, oldPath)
	}
	if matched == 0 {
		return fmt.Errorf("no comparable benchmarks between %s and %s", oldPath, newPath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed >%.0f%%:\n  %s",
			len(regressions), regressionTolerance*100, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("bench-compare: %d benchmark(s) compared, none regressed >%.0f%%\n", matched, regressionTolerance*100)
	return nil
}
