package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
)

// TestUniformTrigRecurrenceDrift pins the rotation-recurrence contract: the
// fast trig table for a uniform grid must stay within 1e-13 of per-point
// math.Sincos across runs far longer than the re-seed interval, so the
// periodic exact re-seeding provably stops drift.
func TestUniformTrigRecurrenceDrift(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2, 1, 0), 20, 0.4, 0, nil)
	ev, err := NewEvaluator(snaps, p, KindQ, WithFastTrig())
	if err != nil {
		t.Fatal(err)
	}
	sc := ev.NewScratch()
	const n = 10 * trigReseedInterval
	for _, step := range []float64{geom.Radians(0.5), geom.Radians(2), 0.123456} {
		for _, i0 := range []int{0, 17, 1000} {
			ev.fillUniformTrig(sc, i0, n, step)
			var maxErr float64
			for k := 0; k < n; k++ {
				es, ec := math.Sincos(float64(i0+k) * step)
				maxErr = math.Max(maxErr, math.Abs(sc.sinPhi[k]-es))
				maxErr = math.Max(maxErr, math.Abs(sc.cosPhi[k]-ec))
			}
			if maxErr > 1e-13 {
				t.Errorf("step %v i0 %d: recurrence drift %.3g, want ≤ 1e-13", step, i0, maxErr)
			}
		}
	}
}

// TestUniformTrigExactMatchesSincos pins the exact-path table: bit-identical
// to math.Sincos of float64(i0+k)*step, which is what the bit-exactness of
// the whole peak search rests on.
func TestUniformTrigExactMatchesSincos(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2, 1, 0), 20, 0.4, 0, nil)
	ev, err := NewEvaluator(snaps, p, KindQ)
	if err != nil {
		t.Fatal(err)
	}
	sc := ev.NewScratch()
	step := geom.Radians(0.5)
	ev.fillUniformTrig(sc, 5, 200, step)
	for k := 0; k < 200; k++ {
		es, ec := math.Sincos(float64(5+k) * step)
		if sc.sinPhi[k] != es || sc.cosPhi[k] != ec {
			t.Fatalf("exact table diverges at k=%d", k)
		}
	}
}

// TestRowKernelMatchesEvalAt asserts that for both kinds and both trig
// modes, the row kernels produce exactly what repeated single-candidate
// evaluation produces — the row batching itself must never change a value,
// in either mode (the fast mode's error budget is spent in FastSincos, not
// in the batching).
func TestRowKernelMatchesEvalAt(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 0.8, 0.5), 150, 0.7, 0, nil)
	angles := UniformAngles(257) // odd length exercises partial chunks
	for _, kind := range []Kind{KindQ, KindR} {
		for _, fast := range []bool{false, true} {
			var opts []EvalOption
			if fast {
				opts = append(opts, WithFastTrig())
			}
			ev, err := NewEvaluator(snaps, p, kind, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sc := ev.NewScratch()
			for _, gamma := range []float64{0, 0.31} {
				ev.fillAngleTrig(sc, angles)
				out := make([]float64, len(angles))
				ev.evalRow(ev.terms, sc, gamma, len(angles), out)
				ref := ev.NewScratch()
				for k, phi := range angles {
					want := ev.EvalAt(ref, phi, gamma)
					if fast {
						// Fast single-candidate eval uses math.Sincos for
						// the candidate trig while the row table uses
						// FastSincos; allow that sliver.
						if math.Abs(out[k]-want) > 1e-6 {
							t.Fatalf("%v fast γ=%v: row[%d]=%v, EvalAt=%v", kind, gamma, k, out[k], want)
						}
						continue
					}
					if out[k] != want {
						t.Fatalf("%v exact γ=%v: row[%d]=%v != EvalAt %v", kind, gamma, k, out[k], want)
					}
				}
			}
		}
	}
}

// TestFastTrigEquivalence is the tolerance-bounded equivalence suite for
// the FastSincos path: over randomized sessions, profile values stay
// within 1e-6 of the exact path and the refined peak direction drifts by
// less than 1e-5 rad in azimuth and polar angle.
func TestFastTrigEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := testParams()
	angles := UniformAngles(720)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 31)
	// One extra refinement round (5 instead of the default 4) puts the
	// final grid at ≈2.8e-6 rad, so even a one-cell argmax flip between
	// the two paths stays under the 1e-5 rad drift budget.
	search := SearchOptions{Refinements: 5}
	for trial := 0; trial < 6; trial++ {
		reader := geom.V3(-2.5+rng.Float64(), -1+2*rng.Float64(), rng.Float64())
		snaps := synth(p, reader, 80+trial*30, rng.Float64()*2, 0.05, rng)
		for _, kind := range []Kind{KindQ, KindR} {
			exact, err := NewEvaluator(snaps, p, kind)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := NewEvaluator(snaps, p, kind, WithFastTrig())
			if err != nil {
				t.Fatal(err)
			}

			pe := exact.Profile2D(angles)
			pf := fast.Profile2D(angles)
			var maxDP float64
			for i := range pe.Power {
				maxDP = math.Max(maxDP, math.Abs(pe.Power[i]-pf.Power[i]))
			}
			pe3 := exact.Profile3D(angles[:90], pol)
			pf3 := fast.Profile3D(angles[:90], pol)
			for i := range pe3.Power {
				for j := range pe3.Power[i] {
					maxDP = math.Max(maxDP, math.Abs(pe3.Power[i][j]-pf3.Power[i][j]))
				}
			}
			if maxDP > 1e-6 {
				t.Errorf("trial %d %v: max |ΔP| = %.3g, want ≤ 1e-6", trial, kind, maxDP)
			}

			azE, powE := FindPeak2DEval(exact, search)
			azF, powF := FindPeak2DEval(fast, search)
			if d := geom.AngleDistance(azE, azF); d > 1e-5 {
				t.Errorf("trial %d %v: 2D peak drift %.3g rad, want < 1e-5", trial, kind, d)
			}
			if math.Abs(powE-powF) > 1e-5 {
				t.Errorf("trial %d %v: 2D peak power drift %.3g", trial, kind, math.Abs(powE-powF))
			}
			pkE := FindPeak3DEval(exact, search)
			pkF := FindPeak3DEval(fast, search)
			if d := geom.AngleDistance(pkE.Azimuth, pkF.Azimuth); d > 1e-5 {
				t.Errorf("trial %d %v: 3D azimuth drift %.3g rad, want < 1e-5", trial, kind, d)
			}
			if d := math.Abs(pkE.Polar - pkF.Polar); d > 1e-5 {
				t.Errorf("trial %d %v: 3D polar drift %.3g rad, want < 1e-5", trial, kind, d)
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
			ev.putScratch(sc)
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
// Evaluator, whole peak searches and Profile2DInto scans allocate nothing.
// The measurement runs at the default pool width, so chunks fan out to the
// compute pool's workers and every Scratch they draw must already be warm.
func TestFindPeakEvalZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are pinned in the non-race run")
	}
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 0.7, 0.3), 120, 0.5, 0, nil)
	angles := UniformAngles(360)
	for _, kind := range []Kind{KindQ, KindR} {
		for _, fast := range []bool{false, true} {
			var opts []EvalOption
			if fast {
				opts = append(opts, WithFastTrig())
			}
			ev, err := NewEvaluator(snaps, p, kind, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var prof Profile
			// Warm the pools and the Into buffers once.
			ev.Profile2DInto(&prof, angles)
			FindPeak2DEval(ev, SearchOptions{})
			FindPeak3DEval(ev, SearchOptions{CoarsePolarStep: geom.Radians(6)})

			if a := testing.AllocsPerRun(20, func() { ev.Profile2DInto(&prof, angles) }); a != 0 {
				t.Errorf("%v fast=%v: Profile2DInto allocates %v/op, want 0", kind, fast, a)
			}
			if a := testing.AllocsPerRun(10, func() { FindPeak2DEval(ev, SearchOptions{}) }); a != 0 {
				t.Errorf("%v fast=%v: FindPeak2DEval allocates %v/op, want 0", kind, fast, a)
			}
			if a := testing.AllocsPerRun(3, func() {
				FindPeak3DEval(ev, SearchOptions{CoarsePolarStep: geom.Radians(6)})
			}); a != 0 {
				t.Errorf("%v fast=%v: FindPeak3DEval allocates %v/op, want 0", kind, fast, a)
			}
		}
	}
}

// --- fast-path micro-benchmarks (the exact-path set lives in
// evaluator_test.go; BENCH_2.json records both) ---

func benchEvaluatorOpts(b *testing.B, kind Kind, n int, opts ...EvalOption) *Evaluator {
	b.Helper()
	p := testParams()
	snaps := synth(p, geom.V3(-2.3, 1.0, 0.6), n, 0.9, 0, nil)
	ev, err := NewEvaluator(snaps, p, kind, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

func benchRow(b *testing.B, kind Kind, opts ...EvalOption) {
	ev := benchEvaluatorOpts(b, kind, 200, opts...)
	const rowLen = 256
	step := geom.Radians(0.5)
	sc := ev.NewScratch()
	out := make([]float64, rowLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.fillUniformTrig(sc, 0, rowLen, step)
		ev.evalRow(ev.terms, sc, 0.1, rowLen, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowLen, "ns/candidate")
}

func BenchmarkEvalRowQExact(b *testing.B) { benchRow(b, KindQ) }
func BenchmarkEvalRowQFast(b *testing.B)  { benchRow(b, KindQ, WithFastTrig()) }
func BenchmarkEvalRowRExact(b *testing.B) { benchRow(b, KindR) }
func BenchmarkEvalRowRFast(b *testing.B)  { benchRow(b, KindR, WithFastTrig()) }

func BenchmarkFindPeak2DREval(b *testing.B) {
	ev := benchEvaluatorOpts(b, KindR, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindPeak2DEval(ev, SearchOptions{})
	}
}

func BenchmarkFindPeak2DREvalFast(b *testing.B) {
	ev := benchEvaluatorOpts(b, KindR, 200, WithFastTrig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindPeak2DEval(ev, SearchOptions{})
	}
}

func BenchmarkProfile3DCoarseParallelFast(b *testing.B) {
	ev := benchEvaluatorOpts(b, KindR, 200, WithFastTrig())
	az := UniformAngles(180)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 91)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Profile3D(az, pol)
	}
}

// TestWrapToPiFast pins the rounded wrap against the exact mathx.WrapToPi
// across the magnitudes spectrum residuals produce, including the ±π
// boundaries where the two conventions may differ by a full turn (which
// every consumer treats as the same angle).
func TestWrapToPiFast(t *testing.T) {
	angleDiff := func(a, b float64) float64 {
		d := math.Abs(a - b)
		return math.Min(d, mathx.TwoPi-d)
	}
	for i := -200_000; i <= 200_000; i++ {
		x := float64(i) * 2.5e-4 // covers [-50, 50]
		got := wrapToPiFast(x)
		if got > math.Pi || got < -math.Pi {
			t.Fatalf("wrapToPiFast(%v) = %v out of [-π, π]", x, got)
		}
		if d := angleDiff(got, mathx.WrapToPi(x)); d > 1e-12 {
			t.Fatalf("wrapToPiFast(%v) = %v, exact %v (Δ=%g)", x, got, mathx.WrapToPi(x), d)
		}
	}
	for _, x := range []float64{math.Pi, -math.Pi, 3 * math.Pi, -3 * math.Pi, 1e7, -1e7, 1e12} {
		got := wrapToPiFast(x)
		if got > math.Pi || got < -math.Pi {
			t.Fatalf("wrapToPiFast(%v) = %v out of [-π, π]", x, got)
		}
		if d := angleDiff(got, mathx.WrapToPi(x)); d > 1e-9 {
			t.Fatalf("wrapToPiFast(%v) = %v, exact %v (Δ=%g)", x, got, mathx.WrapToPi(x), d)
		}
	}
}
