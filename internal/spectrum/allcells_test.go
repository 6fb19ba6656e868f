package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
)

// TestRHarmonicArgmax is the randomized capture pin for the two-pass R
// all-cells route: across hundreds of random sessions (geometry, snapshot
// count, diversity, noise, reference mode, trig mode), the default-routed
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
		var evalOpts []EvalOption
		if trial%3 == 2 {
			evalOpts = append(evalOpts, WithFastTrig())
		}
		ev, err := NewEvaluator(snaps, p, KindR, evalOpts...)
		if err != nil {
			t.Fatal(err)
		}
		gotAz, gotPow := FindPeak2DEval(ev, SearchOptions{})
		wantAz, wantPow := FindPeak2DDense(ev, SearchOptions{})
		if gotAz != wantAz || gotPow != wantPow {
			t.Fatalf("trial %d (n=%d literal=%v fast=%v): harmonic-R (%v, %v) != dense (%v, %v)",
				trial, n, p.LiteralReference, len(evalOpts) > 0, gotAz, gotPow, wantAz, wantPow)
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

// TestProfile2DOptSlack pins the all-cells value contract on random
// sessions: synthesized Q profiles sit within harmonicSlack of the exact
// dense profile, synthesized R profiles within rSlack — including when the
// synthesizing evaluator runs fast trig while the comparator is exact.
func TestProfile2DOptSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	angles := UniformAngles(720)
	for trial := 0; trial < 20; trial++ {
		p := testParams()
		p.LiteralReference = trial%2 == 1
		snaps := synth(p, randReader(rng, true), 16+rng.Intn(64), rng.Float64()*2, rng.Float64()*0.15, rng)
		for _, kind := range []Kind{KindQ, KindR} {
			slack := harmonicSlack
			if kind == KindR {
				slack = rSlack
			}
			exact, err := NewEvaluator(snaps, p, kind)
			if err != nil {
				t.Fatal(err)
			}
			want := exact.Profile2D(angles)
			for _, fast := range []bool{false, trial%3 == 0} {
				ev := exact
				if fast {
					if ev, err = NewEvaluator(snaps, p, kind, WithFastTrig()); err != nil {
						t.Fatal(err)
					}
				}
				got := ev.Profile2DSynth(angles)
				for k := range got.Power {
					if d := math.Abs(got.Power[k] - want.Power[k]); d > slack {
						t.Fatalf("trial %d %v fast=%v cell %d: synthesized %v vs exact %v (Δ=%v > %v)",
							trial, kind, fast, k, got.Power[k], want.Power[k], d, slack)
					}
				}
			}
		}
	}
}

// TestProfile3DOptSlack is the polar-sweep version of the value contract:
// every (γ, φ) cell of the synthesized 3D profile sits within the kind's
// slack of the exact dense grid.
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
		got := ev.Profile3DSynth(az, pol)
		for i := range want.Power {
			for j := range want.Power[i] {
				if d := math.Abs(got.Power[i][j] - want.Power[i][j]); d > slack {
					t.Fatalf("%v cell (%d,%d): synthesized %v vs exact %v (Δ=%v > %v)",
						kind, i, j, got.Power[i][j], want.Power[i][j], d, slack)
				}
			}
		}
	}
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

// TestSearchStatsCounters smoke-tests the routing telemetry: each route
// increments its counter, and the snapshot surfaces through the exported
// struct that locsrv and the server expvar publish.
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
	FindPeak2DAnglesEval(evQ, UniformAngles(64), SearchOptions{})
	FindPeak2DAnglesEval(evR, UniformAngles(64), SearchOptions{})
	evR.Profile2DSynth(UniformAngles(64))
	evQ.Profile2DSynth(UniformAngles(nufftMinCells))
	want := SearchStats{
		HarmonicQ2D: 1, HarmonicR2D: 1, Hier3D: 1, Dense2D: 1, Dense3D: 1,
		ProfileSynth: 2, NUFFT2D: 1, NUFFTR2D: 1, NUFFTProfile: 1,
	}
	if st := SearchStatsSnapshot(); st != want {
		t.Fatalf("route counts %+v, want %+v", st, want)
	}
}
