package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
)

// TestBesselJArray checks Miller's downward recurrence against the standard
// library's math.Jn across the aperture-scale range the testbed produces
// (w = 4πr/λ ≈ 3.9) and beyond.
func TestBesselJArray(t *testing.T) {
	out := make([]float64, 30)
	for _, w := range []float64{0, 1e-13, 3e-9, 2e-7, 9.9e-6, 1e-5, 0.05, 0.7, 1.9, 3.85, 4.2, 7.7, 12.5} {
		besselJArray(w, out)
		for m := range out {
			want := math.Jn(m, w)
			if d := math.Abs(out[m] - want); d > 1e-13 {
				t.Fatalf("w=%v: J_%d = %v, want %v (Δ=%v)", w, m, out[m], want, d)
			}
		}
	}
}

// TestHarmonicSynthesisMatchesExact bounds the synthesized Q values against
// the exact dense row kernel over the default coarse grid: the documented
// harmonicSlack envelope must hold with wide margin (truncation and
// resummation rounding land near 1e-12).
func TestHarmonicSynthesisMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := testParams()
	for trial := 0; trial < 25; trial++ {
		reader := geom.V3(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*2-1)
		if reader.Norm() < 0.8 {
			reader = reader.Scale(2)
		}
		snaps := synth(p, reader, 30+rng.Intn(60), rng.Float64()*2, rng.Float64()*0.1, rng)
		ev, err := NewEvaluator(snaps, p, KindQ)
		if err != nil {
			t.Fatal(err)
		}
		n := 720
		step := geom.Radians(0.5)

		hs := &harmonicScratch{}
		foldTermsHarmonic(hs, ev.coarse, 1)
		got := make([]float64, n)
		sinPhi, cosPhi := planCache.table(planKey{n: n, step: step})
		hs.coeffs.synthesize(got, sinPhi, cosPhi)

		want := make([]float64, n)
		ev.evalRow(ev.coarse, ev.NewScratch(), sinPhi, cosPhi, 0, want)

		var maxD float64
		for k := range got {
			if d := math.Abs(got[k] - want[k]); d > maxD {
				maxD = d
			}
		}
		if maxD > harmonicSlack {
			t.Fatalf("trial %d: synthesis error %v exceeds harmonicSlack %v", trial, maxD, harmonicSlack)
		}
		if maxD > 1e-9 {
			t.Errorf("trial %d: synthesis error %v is far above the expected ~1e-12 floor", trial, maxD)
		}
	}
}

// TestHarmonicArgmaxMatchesDense pins the exact-path contract that lets the
// harmonic route serve every uniform 2D KindQ search: the full 2D search
// must return the dense reference's answer bit for bit, because the
// synthesized shortlist is rescored with the exact per-cell formula.
func TestHarmonicArgmaxMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := testParams()
	for trial := 0; trial < 120; trial++ {
		reader := geom.V3(rng.Float64()*5-2.5, rng.Float64()*5-2.5, 0)
		if reader.Norm() < 0.8 {
			reader = reader.Scale(3)
		}
		snaps := synth(p, reader, 20+rng.Intn(120), rng.Float64()*2, rng.Float64()*0.2, rng)
		ev, err := NewEvaluator(snaps, p, KindQ)
		if err != nil {
			t.Fatal(err)
		}
		wantAz, wantPow := FindPeak2DDense(ev, SearchOptions{})
		gotAz, gotPow := FindPeak2DEval(ev, SearchOptions{})
		if gotAz != wantAz || gotPow != wantPow {
			t.Fatalf("trial %d: harmonic (%v, %v) != dense (%v, %v)", trial, gotAz, gotPow, wantAz, wantPow)
		}
	}
}

// TestHarmonicDefaultOn pins the uniform-2D routing: zero-valued
// SearchOptions take the harmonic route for both kinds (counted as
// HarmonicQ2D / HarmonicR2D, never as a dense scan) and still match the
// dense reference answer bit for bit.
func TestHarmonicDefaultOn(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 64, 0.8, 0.05, rng)
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		denseAz, densePow := FindPeak2DDense(ev, SearchOptions{})
		ResetSearchStats()
		defAz, defPow := FindPeak2DEval(ev, SearchOptions{})
		if defAz != denseAz || defPow != densePow {
			t.Fatalf("%v: default (%v, %v) != dense (%v, %v)", kind, defAz, defPow, denseAz, densePow)
		}
		want := SearchStats{HarmonicQ2D: 1}
		if kind == KindR {
			want = SearchStats{HarmonicR2D: 1, Polishes: 1}
		}
		if st := routeStats(); st != want {
			t.Fatalf("%v: route counts %+v, want %+v", kind, st, want)
		}
	}
}

// randTerms draws n snapshot terms at random disk angles and phases, term i
// taking its aperture scale from scaleOf(i).
func randTerms(rng *rand.Rand, n int, scaleOf func(i int) float64) termSlices {
	var terms termSlices
	for i := 0; i < n; i++ {
		a := rng.Float64() * 2 * math.Pi
		terms.push(rng.Float64()*2*math.Pi-math.Pi, a, scaleOf(i))
	}
	return terms
}

// push appends a term given its relative phase, disk angle and aperture
// scale directly, for tests that place terms rather than synthesize
// snapshots.
func (ts *termSlices) push(relPhase, a, scale float64) {
	ts.relPhase = append(ts.relPhase, relPhase)
	ts.cosA = append(ts.cosA, math.Cos(a))
	ts.sinA = append(ts.sinA, math.Sin(a))
	ts.scale = append(ts.scale, scale)
}

// TestFoldTermsHarmonicBesselMemo pins the Bessel-table memo: folding a term
// set whose two wavelengths interleave in runs of varying length must give
// the same coefficient bits as a fold that computes a fresh table per term.
func TestFoldTermsHarmonicBesselMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const z1, z2 = 3.85, 4.02
	runs := []int{1, 3, 1, 1, 7, 2, 5, 1, 4, 2}
	var scales []float64
	for k, n := range runs {
		for range n * 3 {
			scales = append(scales, []float64{z1, z2}[k%2])
		}
	}
	terms := randTerms(rng, len(scales), func(i int) float64 { return scales[i] })
	for _, cg := range []float64{1, 0.37, math.Cos(math.Pi / 2)} {
		hs := &harmonicScratch{}
		foldTermsHarmonic(hs, terms, cg)

		var want harmonicCoeffs
		want.reset(harmonicsNeeded(terms.maxScale() * cg))
		for i := range terms.scale {
			w := terms.scale[i] * cg
			bess := make([]float64, harmonicsNeeded(w)+1)
			besselJArray(w, bess)
			want.foldTerm(terms.relPhase[i], terms.cosA[i], terms.sinA[i], bess)
		}

		got := hs.coeffs
		if got.n != want.n || got.maxM != want.maxM {
			t.Fatalf("cos γ = %v: n/maxM %d/%d, want %d/%d", cg, got.n, got.maxM, want.n, want.maxM)
		}
		for m := 0; m <= want.maxM; m++ {
			if got.aRe[m] != want.aRe[m] || got.aIm[m] != want.aIm[m] ||
				got.bRe[m] != want.bRe[m] || got.bIm[m] != want.bIm[m] {
				t.Fatalf("cos γ = %v, harmonic %d: memoized (%v, %v, %v, %v) != fresh (%v, %v, %v, %v)",
					cg, m, got.aRe[m], got.aIm[m], got.bRe[m], got.bIm[m],
					want.aRe[m], want.aIm[m], want.bRe[m], want.bIm[m])
			}
		}
	}
}

// TestScaleUnitSums pins the single-scale fold synthRounds uses: the unit sums
// scaled by one Bessel table must touch the same harmonics as the per-term
// fold and agree with it to summation rounding, at every cos γ a polar
// sweep can ask for.
func TestScaleUnitSums(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	terms := randTerms(rng, 447, func(int) float64 { return 3.85 })
	if z := terms.singleScale(); z != 3.85 {
		t.Fatalf("singleScale = %v, want 3.85", z)
	}
	if z := randTerms(rng, 8, func(i int) float64 { return 3.85 + float64(i/7) }).singleScale(); z != 0 {
		t.Fatalf("singleScale of a two-wavelength set = %v, want 0", z)
	}
	unit := &harmonicScratch{}
	foldUnitSums(unit, terms)
	for _, cg := range []float64{1, 0.9, 0.37, 1e-3, math.Cos(math.Pi / 2)} {
		scaleUnitSums(unit, 3.85*cg)
		ref := &harmonicScratch{}
		foldTermsHarmonic(ref, terms, cg)
		got, want := unit.coeffs, ref.coeffs
		if got.n != want.n || got.maxM != want.maxM {
			t.Fatalf("cos γ = %v: n/maxM %d/%d, want %d/%d", cg, got.n, got.maxM, want.n, want.maxM)
		}
		for m := 0; m <= want.maxM; m++ {
			for _, d := range []float64{got.aRe[m] - want.aRe[m], got.aIm[m] - want.aIm[m],
				got.bRe[m] - want.bRe[m], got.bIm[m] - want.bIm[m]} {
				if math.Abs(d) > 1e-11 {
					t.Fatalf("cos γ = %v, harmonic %d: scaled sums differ from the per-term fold by %v", cg, m, d)
				}
			}
		}
	}
}

// TestHarmonicCountTail pins harmonicsNeeded against the Bessel values it
// truncates: for aperture scales w from 0 to 40 (a 1 m-diameter disk at
// the UHF band reaches w ≈ 20), the normalized synthesis error of dropping
// every harmonic past H(w), 2·Σ_{m>H}|J_m(w)|, must stay within
// besselTailMax, and H must never decrease as w grows — a fold at a term
// set's largest scale has to cover every smaller one. The counts the
// comments quote are pinned too.
func TestHarmonicCountTail(t *testing.T) {
	for w, want := range map[float64]int{0: 0, 0.5: 11, 3.85: 22, 20: 51} {
		if h := harmonicsNeeded(w); h != want {
			t.Errorf("harmonicsNeeded(%v) = %d, want %d", w, h, want)
		}
	}
	prev := 0
	var worst float64
	for i := 0; i <= 40000; i++ {
		w := float64(i) / 1000
		h := harmonicsNeeded(w)
		if h < prev {
			t.Fatalf("harmonicsNeeded(%v) = %d < %d at a smaller w", w, h, prev)
		}
		if h2 := harmonicsNeeded(-w); h2 != h {
			t.Fatalf("harmonicsNeeded(%v) = %d, harmonicsNeeded(%v) = %d", -w, h2, w, h)
		}
		prev = h
		if i%7 != 0 { // the Bessel tables are the slow part
			continue
		}
		bess := make([]float64, h+40)
		besselJArray(w, bess)
		var tail float64
		for _, j := range bess[h+1:] {
			tail += 2 * math.Abs(j)
		}
		if !(tail <= besselTailMax) {
			t.Fatalf("w = %v: H = %d leaves a tail of %v > %v", w, h, tail, besselTailMax)
		}
		worst = max(worst, tail)
	}
	t.Logf("worst truncated tail %.2g (budget %g), H(40) = %d", worst, besselTailMax, prev)
}
