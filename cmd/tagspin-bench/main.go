// Command tagspin-bench regenerates the paper's tables and figures (and the
// ablations) from the simulated testbed and prints them as text reports.
//
// Usage:
//
//	tagspin-bench                 # run everything
//	tagspin-bench -run F10a,T2    # run selected experiments
//	tagspin-bench -list           # list experiment ids
//	tagspin-bench -trials 100     # override per-experiment trial counts
//	tagspin-bench -benchjson BENCH_6.json  # machine-readable spectrum perf
//	tagspin-bench -benchcompare auto       # regression-gate the two newest BENCH_*.json
//	tagspin-bench -rebaseline auto         # re-measure the comparison baseline on this machine
//	tagspin-bench -accuracy ACCURACY.json  # per-trial errors of F10a, F10b, F11b, X2 on fixed seeds
//	tagspin-bench -accuracycompare old.json,new.json  # paired accuracy gate
//	tagspin-bench -cpuprofile cpu.pprof -benchjson BENCH_6.json  # profile the run
//	tagspin-bench -memprofile mem.pprof -run T2                  # heap profile at exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/tagspin/tagspin/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tagspin-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tagspin-bench", flag.ContinueOnError)
	var (
		runIDs       = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		list         = fs.Bool("list", false, "list experiment ids and exit")
		seed         = fs.Int64("seed", 0, "random seed")
		trials       = fs.Int("trials", 0, "override per-experiment trial counts (0 = defaults)")
		benchJSON    = fs.String("benchjson", "", "write spectrum micro-benchmark results (ns/op, allocs/op) as JSON to this file and exit")
		benchCompare = fs.String("benchcompare", "", "compare two bench reports ('old.json,new.json', or 'auto' for the two newest BENCH_<n>.json here) and fail on >30% ns/op regressions")
		rebaseline   = fs.String("rebaseline", "", "re-measure the benchmark suite on this machine and overwrite the given baseline file ('auto' = the older of the two newest BENCH_<n>.json here, the -benchcompare baseline), marking it rebaselined so bench-compare deltas reflect code rather than environment drift")
		accuracy     = fs.String("accuracy", "", "run the F10a, F10b, F11b and X2 trials on fixed seeds, write their per-trial errors as JSON to this file and exit")
		accCompare   = fs.String("accuracycompare", "", "pair the trials of two accuracy reports ('old.json,new.json'), print the error deltas and fail on an arm whose mean error rose")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile   = fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close() //nolint:errcheck // profile already flushed by StopCPUProfile
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tagspin-bench: memprofile:", err)
				return
			}
			defer f.Close() //nolint:errcheck // best-effort profile dump
			runtime.GC()    // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tagspin-bench: memprofile:", err)
			}
		}()
	}
	if *benchJSON != "" {
		return writeBenchJSON(*benchJSON, false)
	}
	if *accuracy != "" {
		return writeAccuracyJSON(*accuracy)
	}
	if *accCompare != "" {
		return compareAccuracy(*accCompare, os.Stdout)
	}
	if *rebaseline != "" {
		return rebaselineBench(*rebaseline)
	}
	if *benchCompare != "" {
		return compareBenchJSON(*benchCompare)
	}
	if *list {
		for _, r := range experiment.All() {
			fmt.Printf("%-5s %s\n", r.ID, r.Title)
		}
		return nil
	}
	var runners []experiment.Runner
	if *runIDs == "all" || *runIDs == "" {
		runners = experiment.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			r, err := experiment.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			runners = append(runners, r)
		}
	}
	opts := experiment.Options{Seed: *seed, Trials: *trials}
	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Print(res.Text())
		fmt.Printf("(%s in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
