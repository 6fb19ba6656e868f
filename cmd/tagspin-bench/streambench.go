package main

import (
	"context"
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
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/testbed"
)

// streamTailIters is how many times each tail latency (batch solve vs
// streaming finalize) is sampled per row.
const streamTailIters = 40

// streamItem is one replayable snapshot of the flattened session.
type streamItem struct {
	epc  tags.EPC
	snap phase.Snapshot
}

// flattenObs orders the whole session the way the wire would deliver it.
func flattenObs(obs core.Observations) []streamItem {
	var items []streamItem
	for epc, snaps := range obs {
		for _, s := range snaps {
			items = append(items, streamItem{epc, s})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].snap.Time < items[j].snap.Time })
	return items
}

// streamBenchRows measures what streaming accumulation buys: the
// last-snapshot-to-answer latency on a full-length session. The batch rows
// time the full post-collect pipeline (term preparation + evaluator build +
// coarse scan + refinement + solve); the stream rows feed the same session
// through a core.Stream — term preparation, which overlaps collection in
// production — and time only Finalize2D, which runs the batch search on the
// prepared terms. The stream tail therefore saves only term preparation,
// and SpeedupVsBatch sits near 1. Row pairs share a StreamLocate2D/<kind>
// prefix and the stream row carries SpeedupVsBatch. The LoadLocate2DStream
// rows then run K concurrent full streaming pipelines (replay + finalize)
// for throughput context.
func streamBenchRows() ([]benchResult, error) {
	rng := rand.New(rand.NewSource(9))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-2.2, 1.3, 0))
	col, err := sc.Collect(rng)
	if err != nil {
		return nil, err
	}
	obs := col.Obs
	items := flattenObs(obs)

	kinds := []struct {
		name string
		cfg  core.Config
	}{
		{"Q", core.Config{Kind: spectrum.KindQ}},
		{"Rlit", core.Config{LiteralReference: true}},
	}

	var rows []benchResult
	for _, k := range kinds {
		locator := core.NewLocator(k.cfg)
		// One untimed pass of each shape validates the scenario, warms the
		// pools, and checks the streamed answer matches batch.
		want, err := locator.Locate2D(col.Registered, obs)
		if err != nil {
			return nil, fmt.Errorf("stream bench %s: %w", k.name, err)
		}
		got, err := runStreamOnce(locator, col.Registered, items, obs, nil)
		if err != nil {
			return nil, fmt.Errorf("stream bench %s: %w", k.name, err)
		}
		if got.Position != want.Position {
			return nil, fmt.Errorf("stream bench %s: streamed position %v != batch %v", k.name, got.Position, want.Position)
		}

		// Median, not mean: one host-load burst during the 40 samples drags
		// a mean tens of percent on a shared runner, while the median holds
		// the typical last-snapshot-to-answer latency the rows exist to
		// track.
		batchSamples := make([]float64, streamTailIters)
		for i := range batchSamples {
			t0 := time.Now()
			if _, err := locator.Locate2D(col.Registered, obs); err != nil {
				return nil, err
			}
			batchSamples[i] = float64(time.Since(t0).Nanoseconds())
		}
		streamSamples := make([]float64, streamTailIters)
		for i := range streamSamples {
			var tail time.Duration
			if _, err := runStreamOnce(locator, col.Registered, items, obs, &tail); err != nil {
				return nil, err
			}
			streamSamples[i] = float64(tail.Nanoseconds())
		}
		batchNs := medianNs(batchSamples)
		streamNs := medianNs(streamSamples)

		procs := runtime.GOMAXPROCS(0)
		rows = append(rows,
			benchResult{
				Name:       "StreamLocate2D/" + k.name + "/batch",
				Iterations: streamTailIters,
				NsPerOp:    batchNs,
				GoMaxProcs: procs,
				Variant:    "tail/exact",
			},
			benchResult{
				Name:           "StreamLocate2D/" + k.name + "/stream",
				Iterations:     streamTailIters,
				NsPerOp:        streamNs,
				GoMaxProcs:     procs,
				Variant:        "tail/exact",
				SpeedupVsBatch: batchNs / streamNs,
			})
		fmt.Fprintf(os.Stderr,
			"tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op (batch tail)\n",
			"StreamLocate2D/"+k.name, "tail/exact", procs, batchNs)
		fmt.Fprintf(os.Stderr,
			"tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op (stream tail, %.1fx)\n",
			"", "", procs, streamNs, batchNs/streamNs)
	}

	loadRows, err := streamLoadRows(col.Registered, items, obs)
	if err != nil {
		return nil, err
	}
	return append(rows, loadRows...), nil
}

// medianNs returns the median of samples; it sorts in place.
func medianNs(samples []float64) float64 {
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// runStreamOnce replays the session through a fresh Stream and finalizes.
// When tail is non-nil it receives the finalize-only duration — the
// streaming path's last-snapshot-to-answer latency.
func runStreamOnce(locator *core.Locator, registered []core.SpinningTag, items []streamItem, obs core.Observations, tail *time.Duration) (core.Result2D, error) {
	st := locator.NewStream2D(registered)
	defer st.Close()
	for _, it := range items {
		st.Report(it.epc, it.snap)
	}
	// A live session prepares terms during network waits and ends with an
	// empty queue; replaying faster than real time piles that work into the
	// finalize unless we drain first.
	st.Quiesce()
	t0 := time.Now()
	res, err := st.Finalize2D(context.Background(), obs)
	if tail != nil {
		*tail = time.Since(t0)
	}
	if err != nil {
		return core.Result2D{}, err
	}
	if stats := st.Stats(); stats.FallbackTags != 0 {
		return core.Result2D{}, fmt.Errorf("stream bench: %d tags fell back to batch", stats.FallbackTags)
	}
	return res, nil
}

// streamLoadRows is the loadBenchRows shape on the streaming pipeline: K
// goroutines each running complete replay+finalize cycles back to back.
// Throughput is bounded by total work (term preparation does not vanish, it
// just moves off the tail), so these rows contextualize the tail rows rather
// than promise a throughput win. Like loadBenchRows, each K yields one row
// per solve backend — LoadLocate2DStream/K=<k> for the bearing-grid
// estimator (name unchanged since schema 4) and LoadLocate2DStream/ml/K=<k>
// for the joint maximum-likelihood backend (schema 8) — closing the
// estimator A/B over the streaming pipeline the batch load rows already had.
func streamLoadRows(registered []core.SpinningTag, items []streamItem, obs core.Observations) ([]benchResult, error) {
	grid := core.NewLocator(core.Config{LiteralReference: true})
	backends := []struct {
		prefix string
		loc    *core.Locator
	}{
		{"LoadLocate2DStream", grid},
		{"LoadLocate2DStream/ml", grid.WithEstimator(estimate.NewML(estimate.Config{}))},
	}
	var rows []benchResult
	for _, be := range backends {
		beRows, err := streamLoadBackendRows(be.loc, be.prefix, registered, items, obs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, beRows...)
	}
	return rows, nil
}

// streamLoadBackendRows runs the K-sweep for one locator backend.
func streamLoadBackendRows(locator *core.Locator, prefix string, registered []core.SpinningTag, items []streamItem, obs core.Observations) ([]benchResult, error) {
	if _, err := runStreamOnce(locator, registered, items, obs, nil); err != nil {
		return nil, err
	}
	var rows []benchResult
	for _, k := range loadConcurrencies() {
		latencies := make([][]time.Duration, k)
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(loadDuration())
		for g := 0; g < k; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				lats := make([]time.Duration, 0, 4096)
				for time.Now().Before(deadline) {
					t0 := time.Now()
					if _, err := runStreamOnce(locator, registered, items, obs, nil); err != nil {
						panic(fmt.Sprintf("stream load bench failed: %v", err))
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
			return nil, fmt.Errorf("stream load bench %s at K=%d completed no locates", prefix, k)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var total time.Duration
		for _, d := range all {
			total += d
		}
		row := benchResult{
			Name:          fmt.Sprintf("%s/K=%d", prefix, k),
			Iterations:    len(all),
			NsPerOp:       float64(total.Nanoseconds()) / float64(len(all)),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			Variant:       "load/stream",
			Concurrency:   k,
			LocatesPerSec: float64(len(all)) / elapsed.Seconds(),
			P50Ns:         float64(all[len(all)/2].Nanoseconds()),
			P99Ns:         float64(all[(len(all)*99)/100].Nanoseconds()),
		}
		rows = append(rows, row)
		fmt.Fprintf(os.Stderr,
			"tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op  %7.1f locates/s  p50=%.2fms p99=%.2fms\n",
			row.Name, row.Variant, row.GoMaxProcs, row.NsPerOp, row.LocatesPerSec,
			row.P50Ns/1e6, row.P99Ns/1e6)
	}
	return rows, nil
}
