package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/estimate"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/testbed"
)

// loadBenchDuration is how long each concurrency level is measured. Long
// enough for thousands of locates per stream on current hardware, short
// enough that the full K sweep stays under ~10 s.
const loadBenchDuration = 1500 * time.Millisecond

// loadConcurrencies returns the deduplicated, ascending K values to measure:
// 1, 2, 4, and NumCPU.
func loadConcurrencies() []int {
	ks := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	out := ks[:0]
	for _, k := range ks {
		if k >= 1 && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// loadBenchRows measures the serving-path shape: K goroutines each running
// complete Locate2D pipelines back to back against the same scenario, all
// contending for the same CPUs. Each K yields one row per solve backend —
// LoadLocate2D/K=<k> for the default bearing-grid estimator (name unchanged
// since schema 3) and LoadLocate2D/ml/K=<k> for the joint
// maximum-likelihood backend (schema 6) — with aggregate locates/sec, mean
// latency as nsPerOp, p50/p99
// latency, and the plan-cache hit rate over the run (the cache is reset per
// row, so the rate reflects steady-state reuse after one cold sweep, the
// acceptance scenario of repeated locates at the default grid).
func loadBenchRows() ([]benchResult, error) {
	rng := rand.New(rand.NewSource(9))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-2.2, 1.3, 0))
	col, err := sc.Collect(rng)
	if err != nil {
		return nil, err
	}
	grid := core.NewLocator(core.Config{})
	backends := []struct {
		prefix string
		loc    *core.Locator
	}{
		{"LoadLocate2D", grid},
		{"LoadLocate2D/ml", grid.WithEstimator(estimate.NewML(estimate.Config{}))},
	}
	var rows []benchResult
	for _, be := range backends {
		// One untimed locate validates the scenario and warms every pool.
		if _, err := be.loc.Locate2D(col.Registered, col.Obs); err != nil {
			return nil, err
		}
		for _, k := range loadConcurrencies() {
			row, err := measureLoad(be.loc, col, fmt.Sprintf("%s/K=%d", be.prefix, k), k)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// measureLoad runs K goroutines of back-to-back Locate2D calls for
// loadBenchDuration and distills one load row.
func measureLoad(locator *core.Locator, col testbed.Collection, name string, k int) (benchResult, error) {
	spectrum.ResetPlanCache()
	latencies := make([][]time.Duration, k)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(loadBenchDuration)
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, 4096)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if _, err := locator.Locate2D(col.Registered, col.Obs); err != nil {
					panic(fmt.Sprintf("load bench locate failed: %v", err))
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[g] = lats
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	if len(all) == 0 {
		return benchResult{}, fmt.Errorf("load bench %s completed no locates", name)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var total time.Duration
	for _, d := range all {
		total += d
	}
	p50 := all[len(all)/2]
	p99 := all[(len(all)*99)/100]
	cacheStats := spectrum.PlanCacheSnapshot()
	row := benchResult{
		Name:             name,
		Iterations:       len(all),
		NsPerOp:          float64(total.Nanoseconds()) / float64(len(all)),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		Variant:          "load/exact",
		Concurrency:      k,
		LocatesPerSec:    float64(len(all)) / elapsed.Seconds(),
		P50Ns:            float64(p50.Nanoseconds()),
		P99Ns:            float64(p99.Nanoseconds()),
		PlanCacheHitRate: cacheStats.HitRate,
	}
	fmt.Fprintf(os.Stderr,
		"tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op  %7.1f locates/s  p50=%.2fms p99=%.2fms  cache=%.3f\n",
		row.Name, row.Variant, row.GoMaxProcs, row.NsPerOp, row.LocatesPerSec,
		float64(p50.Nanoseconds())/1e6, float64(p99.Nanoseconds())/1e6, row.PlanCacheHitRate)
	return row, nil
}
