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
	"time"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/estimate"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/testbed"
)

// mlTrials is the size of the accuracy sweep behind each MLLocate row's
// meanErrM. Small on purpose: the rows exist to pin the grid-vs-ML A/B over
// time, not to re-run the EXPERIMENTS error study (see experiment X2).
const mlTrials = 8

// mlPairs is the number of alternating (grid, ml) rep pairs behind each
// MLLocate A/B; odd, so the median is one pair.
const mlPairs = 5

// mlBenchRows measures the grid and joint-ML solve backends end to end
// (schema 5): MLLocate2D/{grid,ml} and MLLocate3D/{grid,ml} rows time a full
// Locate call — shared spectrum peak search plus backend solve — over the
// same observations, and carry the mean localization error of a small
// multi-placement sweep so the A/B covers accuracy as well as cost, and
// (schema 15) the estimator solves of the timed locate. The caller runs it
// at GOMAXPROCS 1.
func mlBenchRows() ([]benchResult, error) {
	rng := rand.New(rand.NewSource(11))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-1.9, 1.4, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		return nil, err
	}
	col, err := sc.Collect(rng)
	if err != nil {
		return nil, err
	}

	grid := core.NewLocator(core.Config{})
	mlEst := estimate.NewML(estimate.Config{})
	backends := []struct {
		name string
		loc  *core.Locator
		est  core.Estimator
	}{{"grid", grid, core.GridEstimator{}}, {"ml", grid.WithEstimator(mlEst), mlEst}}

	// Accuracy sweep: the same placements and observations for both
	// backends, 2D targets in the survey plane and 3D targets above it
	// (where the default grid z-policy is on its home turf).
	errs2D := map[string][]float64{}
	errs3D := map[string][]float64{}
	for i := 0; i < mlTrials; i++ {
		target := geom.V3(-2.5+rng.Float64()*5, 1.0+rng.Float64()*1.5, 0)
		sc.PlaceReader(target)
		tcol, err := sc.Collect(rng)
		if err != nil {
			return nil, err
		}
		for _, be := range backends {
			res, err := be.loc.Locate2D(registered, tcol.Obs)
			if err != nil {
				return nil, err
			}
			errs2D[be.name] = append(errs2D[be.name], res.Position.DistanceTo(target.XY()))
		}
		target3 := geom.V3(-2+rng.Float64()*4, 1.2+rng.Float64()*1.2, 0.3+rng.Float64()*0.8)
		sc.PlaceReader(target3)
		tcol, err = sc.Collect(rng)
		if err != nil {
			return nil, err
		}
		for _, be := range backends {
			res, err := be.loc.Locate3D(registered, tcol.Obs)
			if err != nil {
				return nil, err
			}
			errs3D[be.name] = append(errs3D[be.name], res.Position.DistanceTo(target3))
		}
	}

	// Host drift between two rows timed one after the other swamps the
	// A/B, so each dimension alternates (grid, ml) rep pairs and reports
	// the pair with the median ml/grid ratio: both of its rows come from
	// back-to-back runs. The caller pins GOMAXPROCS to 1.
	pairs := mlPairs
	if raceEnabled {
		pairs = 1
	}
	procs := runtime.GOMAXPROCS(0)
	dims := []struct {
		name   string
		errs   map[string][]float64
		locate func(*core.Locator) error
	}{
		{"MLLocate2D", errs2D, func(l *core.Locator) error { _, err := l.Locate2D(registered, col.Obs); return err }},
		{"MLLocate3D", errs3D, func(l *core.Locator) error { _, err := l.Locate3D(registered, col.Obs); return err }},
	}
	type pair struct {
		rows  [2]benchResult // grid, ml
		ratio float64
	}
	var rows []benchResult
	for _, d := range dims {
		// One untimed locate per backend through a solveCounter: the
		// solves (passes) behind each timed locate.
		var solves [2]int
		for i, be := range backends {
			c := &solveCounter{Estimator: be.est}
			if err := d.locate(grid.WithEstimator(c)); err != nil {
				return nil, err
			}
			solves[i] = c.solves
		}
		ps := make([]pair, pairs)
		for rep := range ps {
			for i, be := range backends {
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for n := 0; n < b.N; n++ {
						if err := d.locate(be.loc); err != nil {
							b.Fatal(err)
						}
					}
				})
				ps[rep].rows[i] = benchResult{
					Name:            d.name + "/" + be.name,
					Iterations:      res.N,
					NsPerOp:         float64(res.T.Nanoseconds()) / float64(res.N),
					AllocsPerOp:     res.AllocsPerOp(),
					BytesPerOp:      res.AllocedBytesPerOp(),
					GoMaxProcs:      procs,
					Variant:         be.name,
					MeanErrM:        mean(d.errs[be.name]),
					SolvesPerLocate: solves[i],
				}
			}
			ps[rep].ratio = ps[rep].rows[1].NsPerOp / ps[rep].rows[0].NsPerOp
		}
		slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(a.ratio, b.ratio) })
		rows = append(rows, ps[len(ps)/2].rows[:]...)
	}
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op  meanErr %.1f cm  %d solves/locate\n",
			r.Name, r.Variant, r.GoMaxProcs, r.NsPerOp, r.MeanErrM*100, r.SolvesPerLocate)
	}
	return rows, nil
}

// solveCounter wraps a solve backend and counts its solves: one per pass
// of the locate pipeline, the bootstrap included. A locate's passes solve
// one after another, so the count needs no lock.
type solveCounter struct {
	core.Estimator
	solves int
}

func (c *solveCounter) Solve2D(tags []core.EstimatorTag) (core.Solution2D, error) {
	c.solves++
	return c.Estimator.Solve2D(tags)
}

func (c *solveCounter) Solve3D(tags []core.EstimatorTag) (core.Solution3D, error) {
	c.solves++
	return c.Estimator.Solve3D(tags)
}

// mlSolveReads is the read count of each synthesized disk behind the
// MLSolve rows: one portal tag's session.
const mlSolveReads = 576

// mlSolveBenchRows times the joint-ML solve alone (schema 12): MLSolve2D
// and MLSolve3D call estimate.ML's Solve2D/Solve3D on two fixed
// synthesized disks of mlSolveReads reads each, seen from a planar and a
// raised reader, so the rows isolate the likelihood refinement and the
// Hessian from the spectrum search a Locate runs first.
func mlSolveBenchRows() ([]benchResult, error) {
	rng := rand.New(rand.NewSource(5))
	disks := []spindisk.Disk{
		{Center: geom.V3(-0.25, 0, 0), Radius: 0.10, Omega: math.Pi},
		{Center: geom.V3(0.25, 0, 0), Radius: 0.10, Omega: math.Pi, Theta0: math.Pi / 3},
	}
	fixture := func(target geom.Vec3) []core.EstimatorTag {
		etags := make([]core.EstimatorTag, len(disks))
		for i, d := range disks {
			etags[i] = synthEstimatorTag(byte(i+1), d, target, rng)
		}
		return etags
	}
	tags2, tags3 := fixture(geom.V3(-1.7, 1.3, 0)), fixture(geom.V3(-1.7, 1.3, 0.6))
	ml := estimate.NewML(estimate.Config{})
	if _, err := ml.Solve2D(tags2); err != nil {
		return nil, err
	}
	if _, err := ml.Solve3D(tags3); err != nil {
		return nil, err
	}
	cases := []struct {
		name string
		fn   func() error
	}{
		{"MLSolve2D", func() error { _, err := ml.Solve2D(tags2); return err }},
		{"MLSolve3D", func() error { _, err := ml.Solve3D(tags3); return err }},
	}
	procs := runtime.GOMAXPROCS(0)
	rows := make([]benchResult, 0, len(cases))
	for _, c := range cases {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
		rows = append(rows, benchResult{
			Name:        c.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			GoMaxProcs:  procs,
			Variant:     "ml",
		})
	}
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op %6d allocs/op\n",
			r.Name, r.Variant, r.GoMaxProcs, r.NsPerOp, r.AllocsPerOp)
	}
	return rows, nil
}

// synthEstimatorTag synthesizes mlSolveReads reads of one disk over two
// turns under the far-field phase model the Q profile assumes,
// θ_j = C − (4πr/λ)·cos(a_j−φ*)·cos γ* + ε with σ = 0.1 rad, toward a
// reader at p; the seed bearing is the true direction.
func synthEstimatorTag(id byte, disk spindisk.Disk, p geom.Vec3, rng *rand.Rand) core.EstimatorTag {
	const freqHz = 920.625e6
	d := p.Sub(disk.Center)
	phiStar := math.Atan2(d.Y, d.X)
	gammaStar := math.Atan2(d.Z, math.Hypot(d.X, d.Y))
	scale := 4 * math.Pi * disk.Radius * freqHz / 299792458.0
	c0 := rng.Float64() * 2 * math.Pi
	duration := 2 * float64(disk.Period())
	snaps := make([]phase.Snapshot, mlSolveReads)
	for j := range snaps {
		t := time.Duration(float64(j) / mlSolveReads * duration)
		snaps[j] = phase.Snapshot{
			Time:        t,
			Phase:       c0 - scale*math.Cos(disk.Angle(t)-phiStar)*math.Cos(gammaStar) + rng.NormFloat64()*0.1,
			FrequencyHz: freqHz,
		}
	}
	epc := tags.EPC{id}
	return core.EstimatorTag{
		Tag:   core.SpinningTag{EPC: epc, Disk: disk},
		Snaps: snaps,
		Est:   core.TagEstimate{EPC: epc, Azimuth: phiStar, Polar: gammaStar, Power: 1, Snapshots: mlSolveReads},
	}
}

// mean averages xs; zero for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
