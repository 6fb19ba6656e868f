package main

import (
	"cmp"
	"fmt"
	"math"
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

// refinePairs is the number of alternating (full, coarse-only) rep pairs
// behind each RefineR and CoarseR row; odd, so the median is one pair.
const refinePairs = 5

// refineSessions builds the RefineR and CoarseR rows' inputs: for seeds 50–53, one
// calibrated testbed.DefaultScenario session per placement, each tag's
// snapshots orientation-corrected against the truth and against a point
// 15 cm off it, as a converged and an early correction pass scan them —
// 16 robust KindR evaluators per dimension. threeD raises the readers off
// the disk plane.
func refineSessions(threeD bool) ([]*spectrum.Evaluator, error) {
	truths := []geom.Vec3{geom.V3(-1.8, 1.4, 0.5), geom.V3(0.7, 2.4, 1.0), geom.V3(2.6, 1.5, 0.3), geom.V3(-0.9, 2.1, 0.8)}
	var evs []*spectrum.Evaluator
	for i, truth := range truths {
		if !threeD {
			truth.Z = 0
		}
		seed := int64(50 + i)
		rng := rand.New(rand.NewSource(seed))
		sc := testbed.DefaultScenario(0, rng)
		sc.PlaceReader(truth)
		registered, err := sc.CalibratedSpinningTags(rng)
		if err != nil {
			return nil, err
		}
		col, err := sc.Collect(rng)
		if err != nil {
			return nil, err
		}
		offset := truth.Add(geom.V3(0.15*math.Cos(float64(seed)), 0.15*math.Sin(float64(seed)), 0))
		for _, tag := range registered {
			snaps := append([]phase.Snapshot(nil), col.Obs[tag.EPC]...)
			phase.SortByTime(snaps)
			for _, against := range []geom.Vec3{truth, offset} {
				corrected := tag.Orientation.Apply(snaps, func(i int) float64 {
					a := tag.Disk.Angle(snaps[i].Time)
					az := against.Sub(tag.Disk.TagPositionAt(a)).Azimuth()
					return geom.NormalizeAngle(tag.Disk.TagPlaneAngle(a) - az)
				})
				ev, err := spectrum.NewEvaluator(corrected, spectrum.Params{Disk: tag.Disk}, spectrum.KindR)
				if err != nil {
					return nil, err
				}
				evs = append(evs, ev)
			}
		}
	}
	return evs, nil
}

// refineRBenchRows times R refinement alone (schema 14) and the R coarse
// scan alone (schema 16): RefineR2D and RefineR3D run the full peak search
// and the coarse-only one (NoRefine) over refineSessions as alternating rep
// pairs and report the median pair's difference per scan. Each carries the
// polish's EvalAt calls per refine and its fallbacks to the grid rounds
// over one pass of the sessions (spectrum.SearchStats). CoarseR2D and
// CoarseR3D are the median per-scan time of the same pairs' coarse-only
// halves. The caller runs it at GOMAXPROCS 1.
func refineRBenchRows() ([]benchResult, error) {
	pairs := refinePairs
	if raceEnabled {
		pairs = 1
	}
	procs := runtime.GOMAXPROCS(0)
	var rows []benchResult
	for _, threeD := range []bool{false, true} {
		evs, err := refineSessions(threeD)
		if err != nil {
			return nil, err
		}
		search := func(opts spectrum.SearchOptions) {
			for _, ev := range evs {
				if threeD {
					spectrum.FindPeak3DEval(ev, opts)
				} else {
					spectrum.FindPeak2DEval(ev, opts)
				}
			}
		}
		spectrum.ResetSearchStats()
		search(spectrum.SearchOptions{})
		st := spectrum.SearchStatsSnapshot()
		timed := func(opts spectrum.SearchOptions) testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					search(opts)
				}
			})
		}
		type pair struct{ full, coarse testing.BenchmarkResult }
		ps := make([]pair, pairs)
		for rep := range ps {
			ps[rep] = pair{timed(spectrum.SearchOptions{}), timed(spectrum.SearchOptions{Refinements: spectrum.NoRefine})}
		}
		perScan := func(r testing.BenchmarkResult) float64 {
			return float64(r.T.Nanoseconds()) / float64(r.N) / float64(len(evs))
		}
		refine := func(p pair) float64 { return perScan(p.full) - perScan(p.coarse) }
		slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(refine(a), refine(b)) })
		med := ps[len(ps)/2]
		dim := "2D"
		if threeD {
			dim = "3D"
		}
		fallbacks := st.PolishFallbacks
		rows = append(rows, benchResult{
			Name:            "RefineR" + dim,
			Iterations:      med.full.N,
			NsPerOp:         refine(med),
			AllocsPerOp:     med.full.AllocsPerOp(),
			BytesPerOp:      med.full.AllocedBytesPerOp(),
			GoMaxProcs:      procs,
			Variant:         "serial/exact",
			EvalsPerRefine:  float64(st.PolishEvals) / float64(len(evs)),
			PolishFallbacks: &fallbacks,
		})
		slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(perScan(a.coarse), perScan(b.coarse)) })
		coarse := ps[len(ps)/2].coarse
		rows = append(rows, benchResult{
			Name:        "CoarseR" + dim,
			Iterations:  coarse.N,
			NsPerOp:     perScan(coarse),
			AllocsPerOp: coarse.AllocsPerOp(),
			BytesPerOp:  coarse.AllocedBytesPerOp(),
			GoMaxProcs:  procs,
			Variant:     "serial/exact",
		})
	}
	for _, r := range rows {
		line := fmt.Sprintf("tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op", r.Name, r.Variant, r.GoMaxProcs, r.NsPerOp)
		if r.PolishFallbacks != nil {
			line += fmt.Sprintf("  %.1f EvalAt/refine, %d fallbacks", r.EvalsPerRefine, *r.PolishFallbacks)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	return rows, nil
}
