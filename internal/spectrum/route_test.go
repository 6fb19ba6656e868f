package spectrum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
)

// randReader draws a reader position at a workable range from the disk.
func randReader(rng *rand.Rand, flat bool) geom.Vec3 {
	az := rng.Float64() * 2 * math.Pi
	r := 1.2 + rng.Float64()*2.5
	z := 0.0
	if !flat {
		z = rng.Float64()*2 - 1
	}
	return geom.V3(r*math.Cos(az), r*math.Sin(az), z)
}

// randPoleReader draws a reader within 4° of straight above or below the
// disk center, at a workable range.
func randPoleReader(rng *rand.Rand, center geom.Vec3) geom.Vec3 {
	el := geom.Radians(86 + 4*rng.Float64())
	if rng.Intn(2) == 0 {
		el = -el
	}
	az := rng.Float64() * 2 * math.Pi
	r := 1.2 + rng.Float64()*2.5
	return center.Add(geom.V3(r*math.Cos(el)*math.Cos(az), r*math.Cos(el)*math.Sin(az), r*math.Sin(el)))
}

// synthHopping is synth with snapshot i read on carrier freqs[i%len(freqs)],
// so the session's terms interleave aperture scales.
func synthHopping(p Params, reader geom.Vec3, n int, sigma float64, freqs []float64, rng *rand.Rand) []phase.Snapshot {
	snaps := synth(p, reader, n, 0.9, 0, rng)
	for i := range snaps {
		f := freqs[i%len(freqs)]
		tagPos := p.Disk.TagPosition(snaps[i].Time)
		ph := 4*math.Pi*tagPos.DistanceTo(reader)*f/299_792_458.0 + 0.9 + rng.NormFloat64()*sigma
		snaps[i].Phase = mathx.WrapPhase(ph)
		snaps[i].FrequencyHz = f
	}
	return snaps
}

// TestPeakCaptureBound is the route-table property test: across randomized
// sessions, every search route — harmonic Q and R on the uniform 2D grid,
// per-row synthesis for 3D Q and R, and the synthesized refinement rounds
// behind both — must return the dense reference search's refined peak bit
// for bit. The dense reference scores every coarse cell and every
// refinement candidate; every route holds it through
// shortlist-then-exact-rescore (DESIGN.md §11).
//
// The 2D arm's "long" case draws sessions of 288–447 reads, real session
// lengths, for Q, robust R and literal R: the refinement rounds then fold
// and score the full session, not the coarse subset. Its "long/hopping"
// case hops those sessions between two carriers, so the terms mix aperture
// scales and both passes fold term by term (foldTermsHarmonic) instead of
// scaling one set of unit sums; the coarse subset mixes too whenever its
// stride is odd.
//
// The 3D arm draws 40 sessions per kind and reference on the default 2°
// polar grid, where mirror rows share one synthesis, at real session lengths
// (≥288 reads per tag), so what gets scanned is the strided coarse subset
// (≤64 terms). R runs with both the robust and the literal reference. A
// 7° grid, whose rows are not symmetric and must each be synthesized, adds
// 8 sessions per case. The "short" case
// keeps 40 sessions per kind of 24–63 reads, where the coarse set is the
// whole session. The "pole" case puts the reader within 4° of ±90°
// elevation, so the refinement windows run past ±π/2 and clampPolar
// collapses their edge rows onto one cos γ; every other pole session hops
// between two carriers, so its terms mix aperture scales and refinement
// folds every row term by term instead of scaling one set of unit sums.
func TestPeakCaptureBound(t *testing.T) {
	p := testParams()
	opts := SearchOptions{}

	t.Run("2D", func(t *testing.T) {
		for _, kind := range []Kind{KindQ, KindR} {
			t.Run(kind.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(100 + int64(kind)))
				for trial := 0; trial < 210; trial++ {
					snaps := synth(p, randReader(rng, true), 20+rng.Intn(120), rng.Float64()*2, rng.Float64()*0.2, rng)
					ev, err := NewEvaluator(snaps, p, kind)
					if err != nil {
						t.Fatal(err)
					}
					wantAz, wantPow := FindPeak2DDense(ev, opts)
					if gotAz, gotPow := FindPeak2DEval(ev, opts); gotAz != wantAz || gotPow != wantPow {
						t.Fatalf("trial %d: routed (%v, %v) != dense (%v, %v)", trial, gotAz, gotPow, wantAz, wantPow)
					}
				}
			})
		}
		for i, tc := range refineKinds {
			t.Run("long/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(110 + int64(i)))
				pp := p
				pp.LiteralReference = tc.literal
				for trial := 0; trial < 60; trial++ {
					n := 288 + rng.Intn(160)
					snaps := synth(pp, randReader(rng, true), n, rng.Float64()*2, rng.Float64()*0.2, rng)
					ev, err := NewEvaluator(snaps, pp, tc.kind)
					if err != nil {
						t.Fatal(err)
					}
					wantAz, wantPow := FindPeak2DDense(ev, opts)
					if gotAz, gotPow := FindPeak2DEval(ev, opts); gotAz != wantAz || gotPow != wantPow {
						t.Fatalf("trial %d (n=%d): routed (%v, %v) != dense (%v, %v)",
							trial, n, gotAz, gotPow, wantAz, wantPow)
					}
				}
			})
		}
		for i, tc := range refineKinds {
			t.Run("long/hopping/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(120 + int64(i)))
				pp := p
				pp.LiteralReference = tc.literal
				mixedCoarse := 0
				for trial := 0; trial < 30; trial++ {
					n := 288 + rng.Intn(160)
					snaps := synthHopping(pp, randReader(rng, true), n, rng.Float64()*0.2, []float64{testFreq, testFreq + 1.5e6}, rng)
					ev, err := NewEvaluator(snaps, pp, tc.kind)
					if err != nil {
						t.Fatal(err)
					}
					if ev.terms.singleScale() != 0 {
						t.Fatalf("trial %d: singleScale = %v, want a mixed set", trial, ev.terms.singleScale())
					}
					if ev.coarse.singleScale() == 0 {
						mixedCoarse++
					}
					wantAz, wantPow := FindPeak2DDense(ev, opts)
					if gotAz, gotPow := FindPeak2DEval(ev, opts); gotAz != wantAz || gotPow != wantPow {
						t.Fatalf("trial %d (n=%d): routed (%v, %v) != dense (%v, %v)",
							trial, n, gotAz, gotPow, wantAz, wantPow)
					}
				}
				if mixedCoarse == 0 {
					t.Fatal("no coarse subset mixed carriers: the coarse pass never folded term by term")
				}
			})
		}
	})

	t.Run("3D", func(t *testing.T) {
		for _, kind := range []Kind{KindQ, KindR} {
			t.Run(kind.String(), func(t *testing.T) {
				t.Run("short", func(t *testing.T) {
					rng := rand.New(rand.NewSource(200 + int64(kind)))
					for trial := 0; trial < 40; trial++ {
						snaps := synth3D(p, randReader(rng, false), 24+rng.Intn(40), rng.Float64()*0.15, rng)
						ev, err := NewEvaluator(snaps, p, kind)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := FindPeak3DEval(ev, opts), FindPeak3DDense(ev, opts); got != want {
							t.Fatalf("trial %d: routed %+v != dense %+v", trial, got, want)
						}
					}
				})
				refs := []bool{false}
				if kind == KindR {
					refs = append(refs, true)
				}
				for _, literal := range refs {
					for _, polDeg := range []int{2, 7} {
						name := fmt.Sprintf("%ddeg", polDeg)
						if literal {
							name = "literal/" + name
						}
						trials := 40
						if polDeg != 2 {
							trials = 8
						}
						t.Run(name, func(t *testing.T) {
							rng := rand.New(rand.NewSource(200 + int64(kind)*10 + int64(polDeg)))
							pp := p
							pp.LiteralReference = literal
							o := SearchOptions{CoarsePolarStep: geom.Radians(float64(polDeg))}
							for trial := 0; trial < trials; trial++ {
								n := 288 + rng.Intn(160)
								snaps := synth3D(pp, randReader(rng, false), n, rng.Float64()*0.15, rng)
								ev, err := NewEvaluator(snaps, pp, kind)
								if err != nil {
									t.Fatal(err)
								}
								if m := ev.coarse.n(); m > coarseTermLimit || m == n {
									t.Fatalf("coarse subset has %d of %d terms, want a strided subset of ≤%d", m, n, coarseTermLimit)
								}
								if got, want := FindPeak3DEval(ev, o), FindPeak3DDense(ev, o); got != want {
									t.Fatalf("trial %d (n=%d): routed %+v != dense %+v", trial, n, got, want)
								}
							}
						})
					}
				}
			})
		}
		for i, tc := range refineKinds {
			t.Run("pole/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(230 + int64(i)))
				pp := p
				pp.LiteralReference = tc.literal
				azStep, polStep, nAz, nPol := opts.grid3D()
				clamped := 0
				for trial := 0; trial < 12; trial++ {
					n := 288 + rng.Intn(160)
					reader := randPoleReader(rng, pp.Disk.Center)
					snaps := synth3D(pp, reader, n, rng.Float64()*0.15, rng)
					if trial%2 == 1 {
						snaps = synthHopping(pp, reader, n, rng.Float64()*0.15, []float64{testFreq, testFreq + 1.5e6}, rng)
					}
					ev, err := NewEvaluator(snaps, pp, tc.kind)
					if err != nil {
						t.Fatal(err)
					}
					if (ev.terms.singleScale() == 0) != (trial%2 == 1) {
						t.Fatalf("trial %d: singleScale = %v, want a mixed set exactly on odd trials", trial, ev.terms.singleScale())
					}
					if row := ev.harmonicArgmax3D(ev.coarse, nAz, nPol, azStep, -math.Pi/2, polStep) / nAz; row == 0 || row == nPol-1 {
						clamped++
					}
					if got, want := FindPeak3DEval(ev, opts), FindPeak3DDense(ev, opts); got != want {
						t.Fatalf("trial %d (n=%d): routed %+v != dense %+v", trial, n, got, want)
					}
				}
				if clamped == 0 {
					t.Fatal("no coarse winner on a ±π/2 row: the case never clamped a refinement row")
				}
			})
		}
	})
}

// refineKinds are the profile configurations the long-session capture
// cases sweep: Q, robust R and literal-reference R.
var refineKinds = []struct {
	name    string
	kind    Kind
	literal bool
}{
	{"Q", KindQ, false},
	{"R", KindR, false},
	{"literal-R", KindR, true},
}

// TestHarmonicDefaultOn3D pins the 3D routing: zero-valued SearchOptions
// take the per-row synthesis for both kinds, count it on the kind's
// Harmonic*3D counter, never touch the dense scan, and still match the
// dense reference answer bit for bit.
func TestHarmonicDefaultOn3D(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	p := testParams()
	snaps := synth3D(p, geom.V3(-2.1, 0.7, 0.9), 60, 0.05, rng)
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		want := FindPeak3DDense(ev, SearchOptions{})
		ResetSearchStats()
		if got := FindPeak3DEval(ev, SearchOptions{}); got != want {
			t.Fatalf("%v: default %+v != dense %+v", kind, got, want)
		}
		wantStats := SearchStats{HarmonicQ3D: 1}
		if kind == KindR {
			wantStats = SearchStats{HarmonicR3D: 1, Polishes: 1}
		}
		if st := routeStats(); st != wantStats {
			t.Fatalf("%v: route counts %+v, want %+v", kind, st, wantStats)
		}
	}
}

// TestHarmonicArgmax3DGuardCells drives the mirror-row μ̂ guard: a two-term
// session whose residual phasors cancel at φ = 0 of a mirrored polar-row
// pair, so that cell's robust mean is ill-conditioned in both rows and the
// mirror row must re-evaluate it densely at its own γ. The route must still
// return the dense argmax cell.
func TestHarmonicArgmax3DGuardCells(t *testing.T) {
	const z, r = 3.85, 30
	opts := SearchOptions{Refinements: NoRefine}
	_, polStep, _, nPol := opts.grid3D()
	a1 := 2 * math.Pi / 3
	cg := math.Cos(-math.Pi/2 + float64(r)*polStep)
	var terms termSlices
	terms.push(0, 0, z)
	terms.push(mathx.WrapToPi(math.Pi+z*cg*(1-math.Cos(a1))), a1, z)
	for _, row := range []int{r, nPol - 1 - r} {
		c := math.Cos(-math.Pi/2 + float64(row)*polStep)
		res := terms.relPhase[1] - z*c*(1-terms.cosA[1])
		if s := math.Hypot(1+math.Cos(res), math.Sin(res)) / 2; s >= muGuardFrac {
			t.Fatalf("row %d: |S|/n = %v at φ = 0, want < %v", row, s, muGuardFrac)
		}
	}
	ev := newEvaluatorFromTerms(terms, testParams(), KindR)
	if got, want := FindPeak3DEval(ev, opts), FindPeak3DDense(ev, opts); got != want {
		t.Fatalf("routed %+v != dense %+v", got, want)
	}
}
