package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/testbed"
)

// subLinMinSpeedup is the acceptance floor for the 2D sub-linear coarse
// scan: the harmonic evaluator must beat the dense scan by at least this
// factor on the default grid, or the row generation itself fails (and
// bench-compare re-checks the recorded ratio, so a stale report cannot hide
// a regression either).
const subLinMinSpeedup = 5.0

// subLinR3DMinSpeedup is the floor for the KindR 3D coarse scan: per-row
// synthesis against the dense az × polar R scan. Unlike subLinMinSpeedup it
// is checked only by bench-compare on recorded snapshots, not at row
// generation.
const subLinR3DMinSpeedup = 4.0

// subLinBenchRows measures the sub-linear coarse-scan paths against their
// dense baselines (schema 6). Every row is a coarse-only search (NoRefine)
// on a prebuilt evaluator, so the ratio isolates exactly the grid scan the
// harmonic synthesis replaces:
//
//   - Locate2D: the dense 720-cell azimuth scan (FindPeak2DDense), KindQ.
//   - SubLinLocate2D: the harmonic route (fold, synthesize, exact rescore),
//     carrying speedupVsBatch against Locate2D.
//   - Locate3D: the dense az × polar scan (FindPeak3DDense), KindQ.
//   - SubLinLocate3D: per-row synthesis (FindPeak3DEval), carrying
//     speedupVsBatch against Locate3D.
//   - LocateR3D / SubLinLocateR3D: the same 3D pair on a KindR evaluator,
//     the SubLin row gated at subLinR3DMinSpeedup by bench-compare.
func subLinBenchRows() ([]benchResult, error) {
	rng := rand.New(rand.NewSource(13))
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
	ev, err := spectrum.NewEvaluator(snaps, params, spectrum.KindQ)
	if err != nil {
		return nil, err
	}
	evR, err := spectrum.NewEvaluator(snaps, params, spectrum.KindR)
	if err != nil {
		return nil, err
	}

	opts := spectrum.SearchOptions{Refinements: spectrum.NoRefine}

	// The sub-linear paths return the dense argmax bit for bit (the
	// bit-identity suites pin this); recheck here so the speedup rows can
	// never quietly measure two different answers.
	wantAz, wantPow := spectrum.FindPeak2DDense(ev, opts)
	if gotAz, gotPow := spectrum.FindPeak2DEval(ev, opts); gotAz != wantAz || gotPow != wantPow {
		return nil, fmt.Errorf("sublin bench: 2D sub-linear peak (%v, %v) != dense (%v, %v)", gotAz, gotPow, wantAz, wantPow)
	}
	for _, e := range []*spectrum.Evaluator{ev, evR} {
		if got, want := spectrum.FindPeak3DEval(e, opts), spectrum.FindPeak3DDense(e, opts); got != want {
			return nil, fmt.Errorf("sublin bench: 3D sub-linear peak %+v != dense %+v", got, want)
		}
	}

	var sink float64
	peak2D := func(find func(*spectrum.Evaluator, spectrum.SearchOptions) (float64, float64)) func(b *testing.B) {
		return func(b *testing.B) {
			find(ev, opts) // warm pools and plan cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				az, pow := find(ev, opts)
				sink = az + pow
			}
		}
	}
	peak3D := func(ev *spectrum.Evaluator, find func(*spectrum.Evaluator, spectrum.SearchOptions) spectrum.Peak3D) func(b *testing.B) {
		return func(b *testing.B) {
			find(ev, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pk := find(ev, opts)
				sink = pk.Azimuth + pk.Power
			}
		}
	}

	cases := []struct {
		name    string
		variant string
		fn      func(b *testing.B)
	}{
		{"Locate2D", "dense/exact", peak2D(spectrum.FindPeak2DDense)},
		{"SubLinLocate2D", "harmonic/exact", peak2D(spectrum.FindPeak2DEval)},
		{"Locate3D", "dense/exact", peak3D(ev, spectrum.FindPeak3DDense)},
		{"SubLinLocate3D", "synth/exact", peak3D(ev, spectrum.FindPeak3DEval)},
		{"LocateR3D", "dense/exact", peak3D(evR, spectrum.FindPeak3DDense)},
		{"SubLinLocateR3D", "synth/exact", peak3D(evR, spectrum.FindPeak3DEval)},
	}
	procs := runtime.GOMAXPROCS(0)
	rows := make([]benchResult, 0, len(cases))
	for _, c := range cases {
		res := testing.Benchmark(c.fn)
		rows = append(rows, benchResult{
			Name:        c.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			GoMaxProcs:  procs,
			Variant:     c.variant,
		})
	}
	_ = sink
	// Pair each SubLin row with its dense baseline measured just before it.
	rows[1].SpeedupVsBatch = rows[0].NsPerOp / rows[1].NsPerOp
	rows[3].SpeedupVsBatch = rows[2].NsPerOp / rows[3].NsPerOp
	rows[5].SpeedupVsBatch = rows[4].NsPerOp / rows[5].NsPerOp
	for _, r := range rows {
		extra := ""
		if r.SpeedupVsBatch > 0 {
			extra = fmt.Sprintf("  %.1fx vs dense", r.SpeedupVsBatch)
		}
		fmt.Fprintf(os.Stderr, "tagspin-bench: %-28s %14s procs=%-2d %12.0f ns/op %6d allocs/op%s\n",
			r.Name, r.Variant, r.GoMaxProcs, r.NsPerOp, r.AllocsPerOp, extra)
	}
	// Race instrumentation taxes the harmonic path's tight rescore loops
	// harder than the dense scan's and compresses the ratio below the
	// floor (~4.7x observed); only un-instrumented builds produce
	// measurements the floor is calibrated for. bench-compare re-checks
	// the recorded ratio on every BENCH_6+ snapshot, so the gate still
	// holds where it matters.
	if !raceEnabled && rows[1].SpeedupVsBatch < subLinMinSpeedup {
		return nil, fmt.Errorf("sublin bench: SubLinLocate2D speedup %.1fx below the %.0fx floor",
			rows[1].SpeedupVsBatch, subLinMinSpeedup)
	}
	return rows, nil
}
