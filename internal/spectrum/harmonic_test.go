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
	for _, w := range []float64{0, 1e-13, 0.05, 0.7, 1.9, 3.85, 4.2, 7.7, 12.5} {
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
		sc := ev.NewScratch()
		ev.fillUniformTrig(sc, 0, n, step)
		hs.coeffs.synthesize(got, sc.sinPhi[:n], sc.cosPhi[:n])

		want := make([]float64, n)
		ev.evalRow(ev.coarse, sc, 0, n, want)

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
			want = SearchStats{HarmonicR2D: 1}
		}
		if st := SearchStatsSnapshot(); st != want {
			t.Fatalf("%v: route counts %+v, want %+v", kind, st, want)
		}
	}
}
