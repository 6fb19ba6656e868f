package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"github.com/tagspin/tagspin/internal/gen2"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/spindisk"
	"github.com/tagspin/tagspin/internal/testbed"
)

// nufftMinSpeedup is the acceptance floor for the gated NUFFT coarse-scan
// row: the fold + oversampled-grid spread must beat the dense non-uniform
// scan by at least this factor on the jittered 720-cell grid. It matches
// the all-cells profile floor — the NUFFT replaces the same O(cells·terms)
// trig with O(terms·H + U·H + cells·W) work.
const nufftMinSpeedup = 3.0

// nufftBenchAngles is the benchmark candidate grid: the uniform 720-cell
// circle with every point displaced by up to 35% of the spacing (seeded, so
// every report measures the same grid), sorted like a real survey grid.
func nufftBenchAngles() []float64 {
	rng := rand.New(rand.NewSource(41))
	const n = 720
	step := 2 * math.Pi / float64(n)
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = (float64(i) + 0.35*(2*rng.Float64()-1)) * step
	}
	sort.Float64s(angles)
	return angles
}

// nufftBenchRows measures the non-uniform-grid coarse scans (schema 8).
// The session is deliberately the ugly one the NUFFT route exists for: a
// jittery actuator (JitterStd 0.02 rad) read through the Gen2 MAC, so the
// aperture samples are non-uniform in time, localized over the jittered
// candidate grid. DenseLocateNU2D / NUFFTLocate2D pair the dense angle-grid
// scan with the NUFFT route for KindQ (the NUFFT row is gated at
// nufftMinSpeedup); DenseLocateNUR / NUFFTLocateR are the KindR pair,
// reported ungated — pass two of the R replay still walks every term per
// cell, so its ratio is informative rather than enforced.
//
// Before any timing, both pairs re-check what the spectrum test suite pins:
// the NUFFT argmax equals the dense argmax bit for bit on this exact
// session and grid, and the spread Q profile sits within the exported slack
// of the dense one — a speedup row can never quietly measure a path that
// stopped agreeing.
func nufftBenchRows() ([]benchResult, error) {
	rng := rand.New(rand.NewSource(23))
	sc := testbed.DefaultScenario(0, rng)
	sc.Installs = sc.Installs[:1]
	sc.Actuator = spindisk.ActuatorConfig{JitterStd: 0.02}
	sc.Gen2 = &gen2.Config{}
	sc.PlaceReader(geom.V3(-2.2, 1.3, 0))
	col, err := sc.Collect(rng)
	if err != nil {
		return nil, err
	}
	snaps := col.Obs[sc.Installs[0].Tag.EPC]
	phase.SortByTime(snaps)
	params := spectrum.Params{Disk: sc.Installs[0].Disk}
	evQ, err := spectrum.NewEvaluator(snaps, params, spectrum.KindQ)
	if err != nil {
		return nil, err
	}
	evR, err := spectrum.NewEvaluator(snaps, params, spectrum.KindR)
	if err != nil {
		return nil, err
	}
	angles := nufftBenchAngles()

	opts := spectrum.SearchOptions{Refinements: spectrum.NoRefine}

	// Preflight 1: NUFFT argmax bit-identity against the dense scan, both
	// kinds, on the measured session and grid.
	for _, pre := range []struct {
		kind string
		ev   *spectrum.Evaluator
	}{{"Q", evQ}, {"R", evR}} {
		wantAz, wantPow := spectrum.FindPeak2DAnglesDense(pre.ev, angles, opts)
		gotAz, gotPow := spectrum.FindPeak2DAnglesEval(pre.ev, angles, opts)
		if gotAz != wantAz || gotPow != wantPow {
			return nil, fmt.Errorf("nufft bench: %s NUFFT peak (%v, %v) != dense (%v, %v)",
				pre.kind, gotAz, gotPow, wantAz, wantPow)
		}
	}
	// Preflight 2: the spread Q profile within the exported slack.
	var dense, spread spectrum.Profile
	evQ.Profile2DInto(&dense, angles)
	evQ.Profile2DIntoSynth(&spread, angles)
	for k := range dense.Power {
		if d := math.Abs(spread.Power[k] - dense.Power[k]); d > spectrum.ProfileSlackQ {
			return nil, fmt.Errorf("nufft bench: Q profile cell %d off by %v (> %v)",
				k, d, spectrum.ProfileSlackQ)
		}
	}

	var sink float64
	peak := func(ev *spectrum.Evaluator, find func(*spectrum.Evaluator, []float64, spectrum.SearchOptions) (float64, float64)) func(b *testing.B) {
		return func(b *testing.B) {
			find(ev, angles, opts) // warm pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				az, pow := find(ev, angles, opts)
				sink = az + pow
			}
		}
	}

	cases := []struct {
		name     string
		variant  string
		pairWith int
		gated    bool
		fn       func(b *testing.B)
	}{
		{"DenseLocateNU2D", "dense/exact", -1, true, peak(evQ, spectrum.FindPeak2DAnglesDense)},
		{"NUFFTLocate2D", "nufft/exact", 0, true, peak(evQ, spectrum.FindPeak2DAnglesEval)},
		{"DenseLocateNUR", "dense/exact", -1, false, peak(evR, spectrum.FindPeak2DAnglesDense)},
		{"NUFFTLocateR", "nufft/exact", 2, false, peak(evR, spectrum.FindPeak2DAnglesEval)},
	}
	procs := runtime.GOMAXPROCS(0)
	rows := make([]benchResult, 0, len(cases))
	for _, c := range cases {
		res := testing.Benchmark(c.fn)
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		if c.gated && !raceEnabled {
			for rep := 0; rep < 2; rep++ {
				r := testing.Benchmark(c.fn)
				if v := float64(r.T.Nanoseconds()) / float64(r.N); v < ns {
					res, ns = r, v
				}
			}
		}
		rows = append(rows, benchResult{
			Name:        c.name,
			Iterations:  res.N,
			NsPerOp:     ns,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			GoMaxProcs:  procs,
			Variant:     c.variant,
		})
	}
	_ = sink
	for i, c := range cases {
		if c.pairWith >= 0 {
			rows[i].SpeedupVsBatch = rows[c.pairWith].NsPerOp / rows[i].NsPerOp
		}
	}
	for _, r := range rows {
		extra := ""
		if r.SpeedupVsBatch > 0 {
			extra = fmt.Sprintf("  %.1fx vs dense", r.SpeedupVsBatch)
		}
		fmt.Fprintf(os.Stderr, "tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op %6d allocs/op%s\n",
			r.Name, r.Variant, r.GoMaxProcs, r.NsPerOp, r.AllocsPerOp, extra)
	}
	// The floor is calibrated for un-instrumented builds (race instrumentation
	// taxes the rescore loop hardest); bench-compare re-checks the recorded
	// ratio on every snapshot.
	if !raceEnabled && rows[1].SpeedupVsBatch < nufftMinSpeedup {
		return nil, fmt.Errorf("nufft bench: NUFFTLocate2D speedup %.1fx below the %.0fx floor",
			rows[1].SpeedupVsBatch, nufftMinSpeedup)
	}
	return rows, nil
}
