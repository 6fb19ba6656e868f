package spectrum

import (
	"math"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
)

// TestUniformTrigExactMatchesSincos pins the uniform-grid table: bit-identical
// to math.Sincos of float64(i0+k)*step, which is what the bit-exactness of
// the whole peak search rests on.
func TestUniformTrigExactMatchesSincos(t *testing.T) {
	step := geom.Radians(0.5)
	sinPhi, cosPhi := planCache.table(planKey{i0: 5, n: 200, step: step})
	for k := 0; k < 200; k++ {
		es, ec := math.Sincos(float64(5+k) * step)
		if sinPhi[k] != es || cosPhi[k] != ec {
			t.Fatalf("exact table diverges at k=%d", k)
		}
	}
}

// TestRowKernelMatchesEvalAt asserts that for both kinds the row kernels
// produce exactly what repeated single-candidate evaluation produces — the
// row batching itself must never change a value.
func TestRowKernelMatchesEvalAt(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 0.8, 0.5), 150, 0.7, 0, nil)
	angles := UniformAngles(257) // odd length exercises partial chunks
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		sc := ev.NewScratch()
		sinPhi, cosPhi := make([]float64, len(angles)), make([]float64, len(angles))
		for k, phi := range angles {
			sinPhi[k], cosPhi[k] = math.Sincos(phi)
		}
		for _, gamma := range []float64{0, 0.31} {
			out := make([]float64, len(angles))
			ev.evalRow(ev.terms, sc, sinPhi, cosPhi, gamma, out)
			ref := ev.NewScratch()
			for k, phi := range angles {
				if want := ev.EvalAt(ref, phi, gamma); out[k] != want {
					t.Fatalf("%v γ=%v: row[%d]=%v != EvalAt %v", kind, gamma, k, out[k], want)
				}
			}
		}
	}
}

// TestPooledParallelBitExact re-runs the parallel-vs-serial bit-exactness
// property specifically through the pooled-Scratch row-kernel paths, with
// scratches deliberately dirtied between runs: pooling must never leak
// state between evaluations.
func TestPooledParallelBitExact(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-1.9, 1.2, 0.4), 130, 1.0, 0, nil)
	angles := UniformAngles(333)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 19)
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		ser2 := ev.Profile2DSerial(angles)
		ser3 := ev.Profile3DSerial(angles[:64], pol)
		azWant, powWant := FindPeak2DEval(ev, SearchOptions{})
		for round := 0; round < 3; round++ {
			par2 := ev.Profile2D(angles)
			for i := range ser2.Power {
				if par2.Power[i] != ser2.Power[i] {
					t.Fatalf("%v round %d: 2D diverged at %d", kind, round, i)
				}
			}
			par3 := ev.Profile3D(angles[:64], pol)
			for i := range ser3.Power {
				for j := range ser3.Power[i] {
					if par3.Power[i][j] != ser3.Power[i][j] {
						t.Fatalf("%v round %d: 3D diverged at %d,%d", kind, round, i, j)
					}
				}
			}
			az, pow := FindPeak2DEval(ev, SearchOptions{})
			if az != azWant || pow != powWant {
				t.Fatalf("%v round %d: peak (%v,%v) != (%v,%v)", kind, round, az, pow, azWant, powWant)
			}
			// Dirty a pooled scratch to prove the next run cannot be
			// affected by stale buffer contents.
			sc := ev.getScratch()
			for i := range sc.residuals {
				sc.residuals[i] = math.NaN()
			}
			sc.ensureRow(8)
			for i := range sc.sumRe {
				sc.sumRe[i], sc.sumIm[i] = math.NaN(), math.NaN()
				sc.sinPhi[i], sc.cosPhi[i] = math.NaN(), math.NaN()
			}
			putScratch(sc)
		}
	}
}

// TestNoRefineCoarseOnly pins the Refinements sentinel semantics: NoRefine
// returns the raw coarse-grid argmax (a grid multiple of the coarse step),
// the zero value keeps the default 4 rounds, and positive counts are used
// as given.
func TestNoRefineCoarseOnly(t *testing.T) {
	if (SearchOptions{Refinements: NoRefine}).refinements() != 0 {
		t.Error("NoRefine should yield 0 rounds")
	}
	if (SearchOptions{}).refinements() != 4 {
		t.Error("zero value should yield the default 4 rounds")
	}
	if (SearchOptions{Refinements: 2}).refinements() != 2 {
		t.Error("explicit rounds should be used as given")
	}

	p := testParams()
	snaps := synth(p, geom.V3(-2.3, 0.4, 0), 100, 0.9, 0, nil)
	step := geom.Radians(0.5)
	az, pow, err := FindPeak2D(snaps, p, KindR, SearchOptions{Refinements: NoRefine})
	if err != nil {
		t.Fatal(err)
	}
	// The coarse-only result must sit exactly on the coarse grid.
	k := math.Round(az / step)
	if math.Abs(az-k*step) > 1e-12 {
		t.Errorf("coarse-only azimuth %v is off the %v-step grid", az, step)
	}
	if pow <= 0 {
		t.Errorf("coarse-only power %v", pow)
	}
	// And refinement must actually move (and improve) the estimate.
	azRef, powRef, err := FindPeak2D(snaps, p, KindR, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if powRef < pow {
		t.Errorf("refined power %v worse than coarse-only %v", powRef, pow)
	}
	if azRef == az {
		t.Logf("note: refined azimuth landed exactly on the coarse grid point %v", az)
	}
}

// TestFindPeakEvalZeroAllocs pins the pooled steady state: with a prebuilt
// Evaluator, whole peak searches — the 3D one on the default grid — and
// Profile2DInto scans allocate nothing. The measurement runs at the default
// scheduler width, so dense chunks fan out to the scheduler's helpers and
// every Scratch they draw must already be warm.
func TestFindPeakEvalZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are pinned in the non-race run")
	}
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 0.7, 0.3), 120, 0.5, 0, nil)
	angles := UniformAngles(360)
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		var prof Profile
		// Warm the pools and the Into buffers once.
		ev.Profile2DInto(&prof, angles)
		FindPeak2DEval(ev, SearchOptions{})
		FindPeak3DEval(ev, SearchOptions{})

		if a := testing.AllocsPerRun(20, func() { ev.Profile2DInto(&prof, angles) }); a != 0 {
			t.Errorf("%v: Profile2DInto allocates %v/op, want 0", kind, a)
		}
		if a := testing.AllocsPerRun(10, func() { FindPeak2DEval(ev, SearchOptions{}) }); a != 0 {
			t.Errorf("%v: FindPeak2DEval allocates %v/op, want 0", kind, a)
		}
		if a := testing.AllocsPerRun(3, func() { FindPeak3DEval(ev, SearchOptions{}) }); a != 0 {
			t.Errorf("%v: FindPeak3DEval allocates %v/op, want 0", kind, a)
		}
	}
}

// TestFreshEvaluatorAllocs pins what one locate pays per fresh Evaluator:
// building it from a 320-read session and running one whole peak search.
// TestFindPeakEvalZeroAllocs reuses one Evaluator, so it cannot see a
// search that allocates on a fresh one; this test can. The ceiling is
// NewEvaluator's own allocations (TestNewEvaluatorAllocs): the search
// itself allocates nothing, because every Scratch it draws comes warm from
// the process-wide free list, whichever Evaluator it last served. Both
// dimensions run the same search, so both share one ceiling.
func TestFreshEvaluatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are pinned in the non-race run")
	}
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 0.7, 0.3), 320, 0.5, 0, nil)
	const ceiling = 3
	for _, kind := range []Kind{KindQ, KindR} {
		fresh := func() *Evaluator {
			ev, err := NewEvaluator(snaps, p, kind)
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
		if a := testing.AllocsPerRun(10, func() { FindPeak2DEval(fresh(), SearchOptions{}) }); a > ceiling {
			t.Errorf("%v: NewEvaluator + FindPeak2DEval allocates %v objects, want ≤ %d", kind, a, ceiling)
		}
		if a := testing.AllocsPerRun(3, func() { FindPeak3DEval(fresh(), SearchOptions{}) }); a > ceiling {
			t.Errorf("%v: NewEvaluator + FindPeak3DEval allocates %v objects, want ≤ %d", kind, a, ceiling)
		}
	}
}

// TestNewEvaluatorAllocs pins the single term allocation: NewEvaluator on
// a 320-read session allocates the term set (all four slices in one
// array), its strided coarse subset and the Evaluator itself, and nothing
// else.
func TestNewEvaluatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are pinned in the non-race run")
	}
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 0.7, 0.3), 320, 0.5, 0, nil)
	const ceiling = 3
	for _, kind := range []Kind{KindQ, KindR} {
		a := testing.AllocsPerRun(20, func() {
			if _, err := NewEvaluator(snaps, p, kind); err != nil {
				t.Fatal(err)
			}
		})
		if a > ceiling {
			t.Errorf("%v: NewEvaluator allocates %v objects, want ≤ %d", kind, a, ceiling)
		}
	}
}

// --- row-kernel and peak-search micro-benchmarks ---

func benchRow(b *testing.B, kind Kind) {
	ev := benchEvaluator(b, kind, 200)
	const rowLen = 256
	step := geom.Radians(0.5)
	sc := ev.NewScratch()
	out := make([]float64, rowLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinPhi, cosPhi := planCache.table(planKey{n: rowLen, step: step})
		ev.evalRow(ev.terms, sc, sinPhi, cosPhi, 0.1, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowLen, "ns/candidate")
}

func BenchmarkEvalRowQExact(b *testing.B) { benchRow(b, KindQ) }
func BenchmarkEvalRowRExact(b *testing.B) { benchRow(b, KindR) }

func BenchmarkFindPeak2DREval(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindPeak2DEval(ev, SearchOptions{})
	}
}

// BenchmarkFindPeak2DRDense is BenchmarkFindPeak2DREval on the dense
// oracle: per-cell coarse scan and per-candidate refinement.
func BenchmarkFindPeak2DRDense(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindPeak2DDense(ev, SearchOptions{})
	}
}

func BenchmarkFindPeak3DREval(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindPeak3DEval(ev, SearchOptions{})
	}
}

func BenchmarkFindPeak3DRDense(b *testing.B) {
	ev := benchEvaluator(b, KindR, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindPeak3DDense(ev, SearchOptions{})
	}
}
