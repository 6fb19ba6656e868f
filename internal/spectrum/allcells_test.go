package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
)

// TestRHarmonicArgmax is the randomized capture pin for the two-pass R
// all-cells route: across hundreds of random sessions (geometry, snapshot
// count, diversity, noise, reference mode), the default-routed
// FindPeak2DEval — which now takes harmonicArgmaxR2D for KindR — must return
// the dense scan's answer bit for bit. The shortlist-then-exact-rescore
// construction makes this an equality claim, not a tolerance claim.
func TestRHarmonicArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials := 500
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		p := testParams()
		p.LiteralReference = trial%2 == 1
		n := 16 + rng.Intn(48)
		snaps := synth(p, randReader(rng, true), n, rng.Float64()*2, rng.Float64()*0.2, rng)
		ev, err := NewEvaluator(snaps, p, KindR)
		if err != nil {
			t.Fatal(err)
		}
		gotAz, gotPow := FindPeak2DEval(ev, SearchOptions{})
		wantAz, wantPow := FindPeak2DDense(ev, SearchOptions{})
		if gotAz != wantAz || gotPow != wantPow {
			t.Fatalf("trial %d (n=%d literal=%v): harmonic-R (%v, %v) != dense (%v, %v)",
				trial, n, p.LiteralReference, gotAz, gotPow, wantAz, wantPow)
		}
	}
}

// TestAccumulatorHarmonicRBoundary walks the coarseTermLimit seam for every
// accumulator mode against the dense oracle: under and at the limit the
// finalize picks from the streamed per-cell sums, past it the batch harmonic
// route runs — and at every session size the streamed answer, the batch
// harmonic search and FindPeak2DDense must agree bit for bit.
func TestAccumulatorHarmonicRBoundary(t *testing.T) {
	p := testParams()
	counts := []int{coarseTermLimit - 1, coarseTermLimit, coarseTermLimit + 1, coarseTermLimit + 16}
	for i, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(70 + int64(i)))
			for _, n := range counts {
				snaps := synth(p, geom.V3(-2.2, 1.3, 0), n, 0.8, 0.05, rng)
				pp := p
				pp.LiteralReference = tc.literal
				a, err := NewAccumulator2D(pp, tc.kind, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				feedAccumulator(t, a, snaps)
				gotAz, gotPow, err := a.FindPeak2D()
				if err != nil {
					t.Fatal(err)
				}
				ev, err := NewEvaluator(snaps, pp, tc.kind)
				if err != nil {
					t.Fatal(err)
				}
				wantAz, wantPow := FindPeak2DEval(ev, SearchOptions{})
				if gotAz != wantAz || gotPow != wantPow {
					t.Fatalf("%d snapshots: streamed (%v, %v) != batch (%v, %v)",
						n, gotAz, gotPow, wantAz, wantPow)
				}
				denseAz, densePow := FindPeak2DDense(ev, SearchOptions{})
				if gotAz != denseAz || gotPow != densePow {
					t.Fatalf("%d snapshots: streamed (%v, %v) != dense (%v, %v)",
						n, gotAz, gotPow, denseAz, densePow)
				}
			}
		})
	}
}

// synthProfile synthesizes ev's profile row at polar gamma over angles
// through synthRow, the row kernel refinement scores its candidates with,
// from coefficients folded over the full term set at cos γ.
func synthProfile(ev *Evaluator, angles []float64, gamma float64) []float64 {
	hs := &harmonicScratch{}
	cg := math.Cos(gamma)
	foldTermsHarmonic(hs, ev.terms, cg)
	sc := ev.NewScratch()
	sc.ensureRow(len(angles))
	sinPhi, cosPhi := sc.sinPhi[:len(angles)], sc.cosPhi[:len(angles)]
	for k, phi := range angles {
		sinPhi[k], cosPhi[k] = math.Sincos(phi)
	}
	out := make([]float64, len(angles))
	ev.synthRow(&hs.coeffs, sc, cg, sinPhi, cosPhi, out)
	return out
}

// TestProfile2DOptSlack pins the all-cells value contract on random
// sessions, over the uniform 720-cell grid and a jittered one: synthRow's
// Q values sit within harmonicSlack of the exact dense profile, its R
// values within rSlack.
func TestProfile2DOptSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	grids := [][]float64{UniformAngles(720), jitteredAngles(720, 0.35, rng)}
	for trial := 0; trial < 20; trial++ {
		p := testParams()
		p.LiteralReference = trial%2 == 1
		snaps := synth(p, randReader(rng, true), 16+rng.Intn(64), rng.Float64()*2, rng.Float64()*0.15, rng)
		for _, kind := range []Kind{KindQ, KindR} {
			slack := harmonicSlack
			if kind == KindR {
				slack = rSlack
			}
			ev, err := NewEvaluator(snaps, p, kind)
			if err != nil {
				t.Fatal(err)
			}
			for g, angles := range grids {
				want := ev.Profile2D(angles)
				got := synthProfile(ev, angles, 0)
				for k := range got {
					if d := math.Abs(got[k] - want.Power[k]); d > slack {
						t.Fatalf("trial %d %v grid %d cell %d: synthesized %v vs exact %v (Δ=%v > %v)",
							trial, kind, g, k, got[k], want.Power[k], d, slack)
					}
				}
			}
		}
	}
}

// TestProfile3DOptSlack is the polar-sweep version of the value contract:
// every (γ, φ) cell synthRow produces, row by row, sits within the kind's
// slack of the exact dense 3D grid.
func TestProfile3DOptSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := testParams()
	az := UniformAngles(96)
	pol := make([]float64, 9)
	for i := range pol {
		pol[i] = -math.Pi/2 + float64(i)*math.Pi/8
	}
	snaps := synth(p, geom.V3(-1.8, 1.1, 0.7), 48, 0.9, 0.05, rng)
	for _, kind := range []Kind{KindQ, KindR} {
		slack := harmonicSlack
		if kind == KindR {
			slack = rSlack
		}
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		want := ev.Profile3D(az, pol)
		for i, gamma := range pol {
			got := synthProfile(ev, az, gamma)
			for j := range want.Power[i] {
				if d := math.Abs(got[j] - want.Power[i][j]); d > slack {
					t.Fatalf("%v cell (%d,%d): synthesized %v vs exact %v (Δ=%v > %v)",
						kind, i, j, got[j], want.Power[i][j], d, slack)
				}
			}
		}
	}
}

// TestRefineSynthSlack pins the value contract the refinement shortlists
// rest on, at the cells refinement actually synthesizes: random off-grid
// (φ, γ) within ±2° of a session's peak, on full sessions of 288–447 reads
// rather than the coarse subset. Every synthesized value must sit within
// refineSlack of the same Evaluator's EvalAt — qExactSlack for Q, the
// wNorm-relative budget for R — across σ from 0.02 to 0.3 rad, since the R
// slack scales with the kernel's wNorm and 1/σ_w. Cells fold through foldRow
// as synthRounds does for both searches (2D cells at cos γ = 1), on
// single-wavelength sessions and on sessions hopping between two carriers.
// The guard case adds a session whose residual phasors cancel at one cell,
// so that cell's μ̂ falls under muGuardFrac and is evaluated densely.
func TestRefineSynthSlack(t *testing.T) {
	p := testParams()
	t.Run("sessions", func(t *testing.T) {
		rng := rand.New(rand.NewSource(74))
		for trial := 0; trial < 24; trial++ {
			pp := p
			pp.LiteralReference = trial%4 == 3
			pp.Sigma = []float64{0, 0.02, 0.05, 0.3}[trial%4]
			threeD := trial%2 == 1
			n := 288 + rng.Intn(160)
			reader := randReader(rng, !threeD)
			snaps := synth(pp, reader, n, rng.Float64()*2, rng.Float64()*0.15, rng)
			if trial%6 == 5 {
				snaps = synthHopping(pp, reader, n, rng.Float64()*0.15, []float64{testFreq, testFreq + 1.5e6}, rng)
			}
			for _, kind := range []Kind{KindQ, KindR} {
				ev, err := NewEvaluator(snaps, pp, kind)
				if err != nil {
					t.Fatal(err)
				}
				var peak Peak3D
				if threeD {
					peak = FindPeak3DEval(ev, SearchOptions{})
				} else {
					peak.Azimuth, _ = FindPeak2DEval(ev, SearchOptions{})
				}
				for row := 0; row < 3; row++ {
					gamma := 0.0
					if threeD {
						gamma = clampPolar(peak.Polar + geom.Radians(4*rng.Float64()-2))
					}
					phis := make([]float64, refineCells)
					for k := range phis {
						phis[k] = peak.Azimuth + geom.Radians(4*rng.Float64()-2)
					}
					checkRefineSynth(t, ev, phis, gamma)
				}
			}
		}
	})

	t.Run("guard", func(t *testing.T) {
		rng := rand.New(rand.NewSource(75))
		for _, gamma0 := range []float64{0, 0.3} {
			// Term i's residual at (φ, γ) = (0, γ0) is 2πi/n: the n residual
			// phasors are the n-th roots of unity, whose sum vanishes.
			const n, z = 288, 3.85
			cg0 := math.Cos(gamma0)
			terms := make([]snapshotTerm, n)
			for i := range terms {
				a := 2 * math.Pi * float64(i) / n
				terms[i] = snapshotTerm{
					relPhase: mathx.WrapToPi(2*math.Pi*float64(i)/n + z*cg0*(1-math.Cos(a))),
					cosA:     math.Cos(a),
					sinA:     math.Sin(a),
					scale:    z,
				}
			}
			q := newEvaluatorFromTerms(terms, p, KindQ)
			if s := q.EvalAt(q.NewScratch(), 0, gamma0); s >= muGuardFrac/2 {
				t.Fatalf("γ0 = %v: |S|/n = %v at the guard cell, want < %v", gamma0, s, muGuardFrac/2)
			}
			ev := newEvaluatorFromTerms(terms, p, KindR)
			phis := make([]float64, refineCells) // phis[0] = 0 is the guard cell
			for k := 1; k < len(phis); k++ {
				phis[k] = geom.Radians(4*rng.Float64() - 2)
			}
			got := checkRefineSynth(t, ev, phis, gamma0)
			// A guarded cell is evaluated densely, so it carries EvalAt's
			// very bits; a synthesized one would not.
			if want := ev.EvalAt(ev.NewScratch(), 0, gamma0); got[0] != want {
				t.Fatalf("γ0 = %v: guard cell %v != EvalAt %v, want the dense fallback", gamma0, got[0], want)
			}
		}
	})
}

// checkRefineSynth synthesizes ev's profile at the cells (phis[k], gamma)
// through refinement's row kernels, fails if any value strays from EvalAt
// by more than ev.refineSlack(), and returns the synthesized values. The
// cells fold as synthRounds folds them (foldRow, scaling unit sums on
// single-scale sets), in 2D and 3D alike.
func checkRefineSynth(t *testing.T, ev *Evaluator, phis []float64, gamma float64) []float64 {
	t.Helper()
	hs := &harmonicScratch{}
	cg := math.Cos(gamma)
	z := ev.terms.singleScale()
	if z > 0 {
		foldUnitSums(hs, ev.terms)
	}
	foldRow(hs, ev.terms, z, cg)
	sc := ev.NewScratch()
	sc.ensureRow(len(phis))
	for k, phi := range phis {
		sc.sinPhi[k], sc.cosPhi[k] = math.Sincos(phi)
	}
	got := make([]float64, len(phis))
	ev.synthRow(&hs.coeffs, sc, cg, sc.sinPhi, sc.cosPhi, got)
	slack := ev.refineSlack()
	exact := ev.NewScratch()
	for k, phi := range phis {
		want := ev.EvalAt(exact, phi, gamma)
		if d := math.Abs(got[k] - want); d > slack {
			t.Fatalf("%v n=%d at (%v, %v): synthesized %v vs EvalAt %v (Δ=%v > %v)",
				ev.kind, ev.terms.n(), phi, gamma, got[k], want, d, slack)
		}
	}
	return got
}

// TestWrappedSincos pins both wrapped-range phasor kernels' error bounds on
// the full |d| ≤ π domain the weighting pass feeds them (wrapToPiFast
// output), including the wrap boundary where polynomial error peaks.
func TestWrappedSincos(t *testing.T) {
	const steps = 200000
	for i := -steps; i <= steps; i++ {
		d := math.Pi * float64(i) / steps
		ws, wc := math.Sincos(d)
		s, c := wrappedSincos(d, d*d)
		if e := math.Abs(s - ws); e > wrappedSincosMaxErr {
			t.Fatalf("sin(%v): error %v > %v", d, e, wrappedSincosMaxErr)
		}
		if e := math.Abs(c - wc); e > wrappedSincosMaxErr {
			t.Fatalf("cos(%v): error %v > %v", d, e, wrappedSincosMaxErr)
		}
		s, c = coarseWrappedSincos(d, d*d)
		if e := math.Abs(s - ws); e > coarseSincosMaxErr {
			t.Fatalf("coarse sin(%v): error %v > %v", d, e, coarseSincosMaxErr)
		}
		if e := math.Abs(c - wc); e > coarseSincosMaxErr {
			t.Fatalf("coarse cos(%v): error %v > %v", d, e, coarseSincosMaxErr)
		}
	}
}

// routeStats is SearchStatsSnapshot with PolishEvals cleared: the routing
// tests pin which routes ran and how many R polishes, not how many EvalAt
// calls a polish spends on their session.
func routeStats() SearchStats {
	st := SearchStatsSnapshot()
	st.PolishEvals = 0
	return st
}

// TestSearchStatsCounters smoke-tests the search telemetry: each route
// increments its counter, every R search at the default depth (Eval and
// Dense alike) runs one polish, and the snapshot surfaces through the
// exported struct that locsrv and the server expvar publish.
func TestSearchStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 1.2, 0), 32, 0.8, 0.05, rng)
	evQ, err := NewEvaluator(snaps, p, KindQ)
	if err != nil {
		t.Fatal(err)
	}
	evR, err := NewEvaluator(snaps, p, KindR)
	if err != nil {
		t.Fatal(err)
	}
	ResetSearchStats()
	FindPeak2DEval(evQ, SearchOptions{})
	FindPeak2DEval(evR, SearchOptions{})
	FindPeak2DDense(evR, SearchOptions{})
	coarse3D := SearchOptions{CoarseStep: geom.Radians(2), CoarsePolarStep: geom.Radians(10)}
	FindPeak3DEval(evQ, coarse3D)
	FindPeak3DEval(evR, coarse3D)
	FindPeak3DDense(evR, coarse3D)
	want := SearchStats{HarmonicQ2D: 1, HarmonicR2D: 1, HarmonicQ3D: 1, HarmonicR3D: 1, Dense2D: 1, Dense3D: 1, Polishes: 4}
	if st := routeStats(); st != want {
		t.Fatalf("route counts %+v, want %+v", st, want)
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
