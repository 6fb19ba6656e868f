package spectrum

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
)

// TestPeakDegenerateProfiles is the regression test for the off-grid peak
// default: an all-zero (or all-tied) profile must report the *first grid
// point*, not angle 0, because 0 need not be on the grid at all.
func TestPeakDegenerateProfiles(t *testing.T) {
	flatZero := Profile{Angles: []float64{0.1, 0.2, 0.3}, Power: []float64{0, 0, 0}}
	if angle, power := flatZero.Peak(); angle != 0.1 || power != 0 {
		t.Errorf("all-zero 2D peak = (%v, %v), want (0.1, 0)", angle, power)
	}
	tied := Profile{Angles: []float64{1.5, 2.5}, Power: []float64{0.7, 0.7}}
	if angle, _ := tied.Peak(); angle != 1.5 {
		t.Errorf("tied 2D peak at %v, want first grid point 1.5", angle)
	}
	var empty Profile
	if angle, power := empty.Peak(); angle != 0 || power != 0 {
		t.Errorf("empty 2D peak = (%v, %v), want zeros", angle, power)
	}

	flat3D := Profile3D{
		Azimuths: []float64{0.4, 0.5},
		Polars:   []float64{0.1, 0.2},
		Power:    [][]float64{{0, 0}, {0, 0}},
	}
	if az, pol, power := flat3D.Peak(); az != 0.4 || pol != 0.1 || power != 0 {
		t.Errorf("all-zero 3D peak = (%v, %v, %v), want (0.4, 0.1, 0)", az, pol, power)
	}
	var empty3D Profile3D
	if az, pol, power := empty3D.Peak(); az != 0 || pol != 0 || power != 0 {
		t.Errorf("empty 3D peak = (%v, %v, %v), want zeros", az, pol, power)
	}
	// Rows may exist but be empty; still no out-of-range access.
	hollow := Profile3D{Azimuths: nil, Polars: []float64{0.3}, Power: [][]float64{{}}}
	if az, pol, power := hollow.Peak(); az != 0 || pol != 0 || power != 0 {
		t.Errorf("hollow 3D peak = (%v, %v, %v), want zeros", az, pol, power)
	}
}

// TestHalfPowerBeamwidthDegenerate guards the n<2 cases: a single sample
// carries no width information, so the metric must report NaN instead of a
// fictitious full-circle beamwidth.
func TestHalfPowerBeamwidthDegenerate(t *testing.T) {
	one := Profile{Angles: []float64{1.0}, Power: []float64{0.9}}
	if w := one.HalfPowerBeamwidth(); !math.IsNaN(w) {
		t.Errorf("single-sample HPBW = %v, want NaN", w)
	}
	var empty Profile
	if w := empty.HalfPowerBeamwidth(); !math.IsNaN(w) {
		t.Errorf("empty HPBW = %v, want NaN", w)
	}
}

// TestParallelSerialEquivalence2D asserts the parallel grid scan is
// bit-identical to the serial reference: same indices, same float64 bits.
func TestParallelSerialEquivalence2D(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.1, 0), 150, 0.8, 0, nil)
	angles := UniformAngles(1024)
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		par := ev.Profile2D(angles)
		ser := ev.Profile2DSerial(angles)
		for i := range ser.Power {
			if par.Power[i] != ser.Power[i] {
				t.Fatalf("%v: power[%d] parallel %v != serial %v", kind, i, par.Power[i], ser.Power[i])
			}
		}
	}
}

// TestParallelSerialEquivalence3D is the 3D analogue, covering the chunked
// row scan.
func TestParallelSerialEquivalence3D(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 0.5, 0.9), 120, 0.3, 0, nil)
	az := UniformAngles(90)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 45)
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		par := ev.Profile3D(az, pol)
		ser := ev.Profile3DSerial(az, pol)
		for i := range ser.Power {
			for j := range ser.Power[i] {
				if par.Power[i][j] != ser.Power[i][j] {
					t.Fatalf("%v: power[%d][%d] parallel %v != serial %v",
						kind, i, j, par.Power[i][j], ser.Power[i][j])
				}
			}
		}
	}
}

// TestExhaustivePeakMatchesSerialScan checks the parallel argmax against a
// plain serial scan of the same grid, including the lowest-index tie rule.
func TestExhaustivePeakMatchesSerialScan(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-1.8, -1.4, 0), 80, 1.1, 0, nil)
	step := geom.Radians(0.1)
	gotAngle, gotPow, err := ExhaustivePeak2D(snaps, p, KindR, step)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(snaps, p, KindR)
	if err != nil {
		t.Fatal(err)
	}
	sc := ev.NewScratch()
	n := gridSteps(2*math.Pi, step)
	bestIdx, bestPow := 0, math.Inf(-1)
	for i := 0; i < n; i++ {
		if v := ev.EvalAt(sc, float64(i)*step, 0); v > bestPow {
			bestIdx, bestPow = i, v
		}
	}
	if gotAngle != float64(bestIdx)*step || gotPow != bestPow {
		t.Errorf("parallel exhaustive peak (%v, %v) != serial (%v, %v)",
			gotAngle, gotPow, float64(bestIdx)*step, bestPow)
	}
}

var evalSink float64

// TestEvalAtZeroAllocs pins the tentpole property: once an Evaluator and its
// Scratch exist, a candidate-angle evaluation performs zero heap
// allocations, for both profile kinds and both 2D and 3D candidates.
func TestEvalAtZeroAllocs(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.4, 0.9, 0.5), 200, 0.6, 0, nil)
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		sc := ev.NewScratch()
		phi := 0.0
		allocs := testing.AllocsPerRun(200, func() {
			evalSink = ev.EvalAt(sc, phi, 0.2)
			evalSink += ev.EvalAt(sc, phi, 0)
			phi += 0.01
		})
		if allocs != 0 {
			t.Errorf("%v: EvalAt allocates %v per op, want 0", kind, allocs)
		}
	}
}

// TestEvaluatorConcurrentUse hammers one shared Evaluator from many
// goroutines, each with its own Scratch, alongside whole parallel grid
// scans, while other goroutines run both peak searches on it and on a
// second Evaluator with a longer session: Evaluators of different term
// counts draw from the one process-wide Scratch list at once, and every
// result must equal the serial one. Run under -race (GOMAXPROCS 1 and 4 in
// `make check`) this is the data-race test for the engine.
func TestEvaluatorConcurrentUse(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 100, 0.2, 0, nil)
	ev, err := NewEvaluator(snaps, p, KindR)
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewEvaluator(synth(p, geom.V3(1.4, -1.9, 0.4), 260, 0.6, 0, nil), p, KindR)
	if err != nil {
		t.Fatal(err)
	}
	angles := UniformAngles(256)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 7)
	want := ev.Profile2DSerial(angles)
	evs := []*Evaluator{ev, long}
	var want2D [2][2]float64
	var want3D [2]Peak3D
	for i, e := range evs {
		want2D[i][0], want2D[i][1] = FindPeak2DEval(e, SearchOptions{})
		want3D[i] = FindPeak3DEval(e, SearchOptions{})
	}
	// Per-goroutine sink slots: writing the shared evalSink global from the
	// workers would itself be the data race this test exists to rule out of
	// the engine.
	sinks := make([]float64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			sc := ev.NewScratch()
			for k := 0; k < 50; k++ {
				sinks[g] += ev.EvalAt(sc, float64(g)+float64(k)*0.03, 0.1)
			}
			got := ev.Profile2D(angles)
			for i := range want.Power {
				if got.Power[i] != want.Power[i] {
					t.Errorf("goroutine %d: profile diverged at %d", g, i)
					return
				}
			}
			ev.Profile3D(angles[:32], pol)
		}(g)
		go func(i int) {
			defer wg.Done()
			e := evs[i]
			if az, pow := FindPeak2DEval(e, SearchOptions{}); [2]float64{az, pow} != want2D[i] {
				t.Errorf("evaluator %d: FindPeak2DEval (%v, %v) != serial %v", i, az, pow, want2D[i])
			}
			if pk := FindPeak3DEval(e, SearchOptions{}); pk != want3D[i] {
				t.Errorf("evaluator %d: FindPeak3DEval %+v != serial %+v", i, pk, want3D[i])
			}
		}(g % 2)
	}
	wg.Wait()
	evalSink = sinks[0]
}

// TestCompute3DParallelSpeedup measures the wall-clock win of the parallel
// 3D scan over the serial reference on the coarse-scan-shaped grid. It needs
// real cores to mean anything, so it skips below GOMAXPROCS 4 (and under the
// race detector, where scheduling noise drowns the signal).
func TestCompute3DParallelSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS = %d, need ≥4 for a meaningful speedup", runtime.GOMAXPROCS(0))
	}
	if raceEnabled {
		t.Skip("race detector skews timing")
	}
	p := testParams()
	snaps := synth(p, geom.V3(-2.1, 0.8, 0.7), 200, 0.5, 0, nil)
	ev, err := NewEvaluator(snaps, p, KindR)
	if err != nil {
		t.Fatal(err)
	}
	az := UniformAngles(360)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 91)
	// Warm up once, then take the best of 3 rounds each to shed scheduler
	// noise.
	ev.Profile3D(az, pol)
	ev.Profile3DSerial(az, pol)
	serial, parallel := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 3; round++ {
		start := time.Now()
		ev.Profile3DSerial(az, pol)
		if d := time.Since(start); d < serial {
			serial = d
		}
		start = time.Now()
		ev.Profile3D(az, pol)
		if d := time.Since(start); d < parallel {
			parallel = d
		}
	}
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, parallel %v, speedup %.2fx at GOMAXPROCS=%d",
		serial, parallel, speedup, runtime.GOMAXPROCS(0))
	if speedup < 2 {
		t.Errorf("parallel Compute3D speedup %.2fx, want ≥2x", speedup)
	}
}

// --- micro-benchmarks (run with -benchmem to see the 0 allocs/op) ---

func benchEvaluator(b *testing.B, kind Kind, n int) *Evaluator {
	b.Helper()
	p := testParams()
	snaps := synth(p, geom.V3(-2.3, 1.0, 0.6), n, 0.9, 0, nil)
	ev, err := NewEvaluator(snaps, p, kind)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

func BenchmarkEvalAtQ(b *testing.B) {
	ev := benchEvaluator(b, KindQ, 200)
	sc := ev.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalSink = ev.EvalAt(sc, float64(i)*0.001, 0.1)
	}
}

func BenchmarkEvalAtR(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	sc := ev.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalSink = ev.EvalAt(sc, float64(i)*0.001, 0.1)
	}
}

func BenchmarkProfile3DCoarseSerial(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	az := UniformAngles(180)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 91)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Profile3DSerial(az, pol)
	}
}

func BenchmarkProfile3DCoarseParallel(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	az := UniformAngles(180)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 91)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Profile3D(az, pol)
	}
}

func BenchmarkProfile2DSerial(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	angles := UniformAngles(720)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Profile2DSerial(angles)
	}
}

func BenchmarkProfile2DParallel(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	angles := UniformAngles(720)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Profile2D(angles)
	}
}
