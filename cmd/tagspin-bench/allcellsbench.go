package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/testbed"
)

// subLinRMinSpeedup is the acceptance floor for the KindR sub-linear coarse
// scan: the two-pass harmonic R evaluator must beat the dense R scan by at
// least this factor on the default grid. It sits below the Q floor because
// R's pass two still walks every term per cell — the win is dropping the
// per-cell sincos/exp/mod, not the term loop itself.
const subLinRMinSpeedup = 4.0

// allCellsPairs is the number of alternating (dense, sub-linear) rep pairs
// behind the LocateR/SubLinLocateR speedup; odd, so the median is one pair.
const allCellsPairs = 5

// allCellsBenchRows measures the two-pass R synthesis against its dense
// baseline (schema 7). The LocateR/SubLinLocateR pair is the KindR
// counterpart of schema 6's Locate2D/SubLinLocate2D: coarse-only argmax
// (NoRefine), FindPeak2DDense versus the harmonic route, the SubLin row
// carrying speedupVsBatch against the dense row: the median ratio over
// allCellsPairs rep pairs, each pair timing the dense scan and then the
// harmonic route.
//
// Before any timing, the rows re-check what the spectrum test suite pins —
// the sub-linear R argmax equals the dense argmax bit for bit — so the
// speedup row can never quietly measure a path that stopped agreeing.
func allCellsBenchRows() ([]benchResult, error) {
	rng := rand.New(rand.NewSource(17))
	sc := testbed.DefaultScenario(0, rng)
	sc.Installs = sc.Installs[:1]
	sc.PlaceReader(geom.V3(-2.2, 1.3, 0))
	col, err := sc.Collect(rng)
	if err != nil {
		return nil, err
	}
	snaps := col.Obs[sc.Installs[0].Tag.EPC]
	phase.SortByTime(snaps)
	params := spectrum.Params{Disk: sc.Installs[0].Disk}
	evR, err := spectrum.NewEvaluator(snaps, params, spectrum.KindR)
	if err != nil {
		return nil, err
	}

	opts := spectrum.SearchOptions{Refinements: spectrum.NoRefine}
	// Preflight: R sub-linear argmax bit-identity against the dense scan.
	wantAz, wantPow := spectrum.FindPeak2DDense(evR, opts)
	if gotAz, gotPow := spectrum.FindPeak2DEval(evR, opts); gotAz != wantAz || gotPow != wantPow {
		return nil, fmt.Errorf("allcells bench: R sub-linear peak (%v, %v) != dense (%v, %v)",
			gotAz, gotPow, wantAz, wantPow)
	}

	var sink float64
	peakR := func(find func(*spectrum.Evaluator, spectrum.SearchOptions) (float64, float64)) func(b *testing.B) {
		return func(b *testing.B) {
			find(evR, opts) // warm pools and plan cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				az, pow := find(evR, opts)
				sink = az + pow
			}
		}
	}

	cases := []struct {
		name, variant string
		fn            func(b *testing.B)
	}{
		{"LocateR", "dense/exact", peakR(spectrum.FindPeak2DDense)},
		{"SubLinLocateR", "harmonic/exact", peakR(spectrum.FindPeak2DEval)},
	}
	// Both rows feed the floor. Host drift between two back-to-back phases
	// moves such a ratio, so the reps alternate (dense, sub-linear, dense,
	// …) and the recorded speedup is the median of the per-pair ratios;
	// each row's ns/op is its fastest rep.
	procs := runtime.GOMAXPROCS(0)
	pairs := allCellsPairs
	if raceEnabled {
		pairs = 1
	}
	rows := make([]benchResult, len(cases))
	ratios := make([]float64, 0, pairs)
	for rep := 0; rep < pairs; rep++ {
		var ns [2]float64
		for i, c := range cases {
			res := testing.Benchmark(c.fn)
			ns[i] = float64(res.T.Nanoseconds()) / float64(res.N)
			if rep == 0 || ns[i] < rows[i].NsPerOp {
				rows[i] = benchResult{
					Name:        c.name,
					Iterations:  res.N,
					NsPerOp:     ns[i],
					AllocsPerOp: res.AllocsPerOp(),
					BytesPerOp:  res.AllocedBytesPerOp(),
					GoMaxProcs:  procs,
					Variant:     c.variant,
				}
			}
		}
		ratios = append(ratios, ns[0]/ns[1])
	}
	_ = sink
	slices.Sort(ratios)
	rows[1].SpeedupVsBatch = ratios[len(ratios)/2]
	for _, r := range rows {
		extra := ""
		if r.SpeedupVsBatch > 0 {
			extra = fmt.Sprintf("  %.1fx vs dense", r.SpeedupVsBatch)
		}
		fmt.Fprintf(os.Stderr, "tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op %6d allocs/op%s\n",
			r.Name, r.Variant, r.GoMaxProcs, r.NsPerOp, r.AllocsPerOp, extra)
	}
	if enforceFloors() && rows[1].SpeedupVsBatch < subLinRMinSpeedup {
		return nil, fmt.Errorf("allcells bench: SubLinLocateR speedup %.1fx below the %.0fx floor",
			rows[1].SpeedupVsBatch, subLinRMinSpeedup)
	}
	return rows, nil
}
