package spectrum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/mathx"
)

// TestRPruneBound pins the inequality the coarse R prune rests on, at every
// coarse cell the argmax routes scan: the exact evalRExact value never
// exceeds the bound (pruneBound) at the cell's synthesized |Ŝ|/n plus the pass-one
// slack, and — the form the routes use — no cell ever falls under the cut
// its own exact value sets as incumbent, so a cell that reaches the
// incumbent always survives. It sweeps σ ∈ {0.01, DefaultSigma, 1, 3} in
// robust and literal mode over 2D sessions, 3D sessions on the unique rows
// of the default grid, sessions hopping between two carriers, near-pole
// readers, μ̂-guard cells (residual phasors summing to zero), and a
// jittered angle grid.
func TestRPruneBound(t *testing.T) {
	azStep, polStep, nAz, nPol := SearchOptions{}.grid3D()
	var rows3D []float64
	for r := 0; r < nPol; r++ {
		if m, mirror := polarMirror(r, nPol, -math.Pi/2, polStep); !mirror || m > r {
			rows3D = append(rows3D, math.Cos(polarAngle(r, -math.Pi/2, polStep)))
		}
	}
	step2D := SearchOptions{}.coarseStep()
	n2D := gridSteps(2*math.Pi, step2D)
	for _, sigma := range []float64{0.01, DefaultSigma, 1, 3} {
		for _, literal := range []bool{false, true} {
			name := fmt.Sprintf("sigma=%v/literal=%v", sigma, literal)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(sigma*1000) + 7))
				p := testParams()
				p.Sigma = sigma
				p.LiteralReference = literal
				for trial := 0; trial < 4; trial++ {
					n := 24 + rng.Intn(400)
					flat := trial%2 == 0
					reader := randReader(rng, flat)
					noise := rng.Float64() * 0.2
					snaps := synth(p, reader, n, rng.Float64()*2, noise, rng)
					switch trial {
					case 1:
						snaps = synthHopping(p, reader, n, noise, []float64{testFreq, testFreq + 1.5e6}, rng)
					case 3:
						snaps = synth3D(p, randPoleReader(rng, p.Disk.Center), n, noise, rng)
					}
					ev, err := NewEvaluator(snaps, p, KindR)
					if err != nil {
						t.Fatal(err)
					}
					if flat {
						checkRPruneBound(t, ev, []float64{1}, uniformGrid(n2D, step2D))
					} else {
						checkRPruneBound(t, ev, rows3D, uniformGrid(nAz, azStep))
					}
				}
				// Guard cells: 48 terms (all coarse) whose residual phasors at
				// (φ, γ) = (0, γ0) are the 48th roots of unity.
				for _, cg := range []float64{1, rows3D[len(rows3D)/3]} {
					ev := newEvaluatorFromTerms(rootsOfUnityTerms(48, cg), p, KindR)
					hs := &harmonicScratch{}
					foldTermsHarmonic(hs, ev.coarse, cg)
					re, im := []float64{0}, []float64{0}
					hs.coeffs.synthesizeComplex(re, im, []float64{0}, []float64{1}) // the cell φ = 0
					if q := math.Hypot(re[0], im[0]); q >= muGuardFrac {
						t.Fatalf("cos γ0 = %v: |Ŝ|/n = %v at the guard cell, want < %v", cg, q, muGuardFrac)
					}
					checkRPruneBound(t, ev, []float64{cg}, uniformGrid(n2D, step2D))
				}
				// A jittered angle grid takes the same synthesis.
				snaps := synth(p, randReader(rng, true), 200, 0.4, 0.1, rng)
				ev, err := NewEvaluator(snaps, p, KindR)
				if err != nil {
					t.Fatal(err)
				}
				checkRPruneBound(t, ev, []float64{1}, jitteredAngles(720, 0.3, rng))
			})
		}
	}
}

// uniformGrid returns the angles k·step, k < n — a coarse grid's cells.
func uniformGrid(n int, step float64) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = float64(k) * step
	}
	return out
}

// rootsOfUnityTerms builds n terms of aperture scale 3.85 whose residual
// phasors at φ = 0, cos γ = cg are the n-th roots of unity, so |S| vanishes
// there and the cell sits under the μ̂ guard.
func rootsOfUnityTerms(n int, cg float64) []snapshotTerm {
	const z = 3.85
	terms := make([]snapshotTerm, n)
	for i := range terms {
		a := 2 * math.Pi * float64(i) / float64(n)
		terms[i] = snapshotTerm{
			relPhase: mathx.WrapToPi(2*math.Pi*float64(i)/float64(n) + z*cg*(1-math.Cos(a))),
			cosA:     math.Cos(a),
			sinA:     math.Sin(a),
			scale:    z,
		}
	}
	return terms
}

// checkRPruneBound checks every cell (angles[k], cos γ ∈ cgs) of ev's
// coarse term set against the prune bound, with Ŝ synthesized exactly as
// the argmax routes synthesize it.
func checkRPruneBound(t *testing.T, ev *Evaluator, cgs, angles []float64) {
	t.Helper()
	n := len(angles)
	hs := &harmonicScratch{}
	sc := ev.NewScratch()
	sinPhi, cosPhi := make([]float64, n), make([]float64, n)
	for k, phi := range angles {
		sinPhi[k], cosPhi[k] = math.Sincos(phi)
	}
	qRe, qIm := make([]float64, n), make([]float64, n)
	for _, cg := range cgs {
		foldTermsHarmonic(hs, ev.coarse, cg)
		hs.coeffs.synthesizeComplex(qRe, qIm, sinPhi, cosPhi)
		for k := range angles {
			exact := ev.evalRExact(ev.coarse, sc, sinPhi[k], cosPhi[k], cg)
			checkPruneCell(t, ev, exact, qRe[k], qIm[k], harmonicSlack, angles[k], cg)
		}
	}
}

// pruneBound is the R ceiling the cut inverts, written out independently
// of rPruneCut: wNorm·(κ + (1−κ)(1 + q)/2), κ = e^{−2/σ_w²}, for a cell
// whose exact |S|/n is q.
func pruneBound(ev *Evaluator, q float64) float64 {
	kappa := math.Exp(-2 / (ev.weightSigma * ev.weightSigma))
	return ev.wNorm * (kappa + (1-kappa)*(1+q)/2)
}

// checkPruneCell fails if one cell's exact value breaks the bound at its
// synthesized magnitude plus slack, or if the cell falls under the cut its
// own exact value sets.
func checkPruneCell(t *testing.T, ev *Evaluator, exact, re, im, slack, phi, cg float64) {
	t.Helper()
	q2 := re*re + im*im
	if bound := pruneBound(ev, math.Sqrt(q2)+slack); exact > bound*(1+rPruneMargin) {
		t.Fatalf("σ_w=%v literal=%v cell (φ=%v, cos γ=%v): exact R %v > bound %v at |Ŝ|/n=%v",
			ev.weightSigma, ev.literalRef, phi, cg, exact, bound, math.Sqrt(q2))
	}
	if cut2 := ev.rPruneCut(exact, slack); q2 < cut2 {
		t.Fatalf("σ_w=%v literal=%v cell (φ=%v, cos γ=%v): |Ŝ|²/n²=%v under its own cut %v (exact %v)",
			ev.weightSigma, ev.literalRef, phi, cg, q2, cut2, exact)
	}
}

// TestRPruneCutEdges pins the cut's degenerate inputs: an incumbent no
// cell can be proven below, a NaN incumbent, and a kernel so wide that the
// bound is flat all prune nothing.
func TestRPruneCutEdges(t *testing.T) {
	p := testParams()
	ev := newEvaluatorFromTerms(rootsOfUnityTerms(8, 1), p, KindR)
	if c := ev.rPruneCut(0, harmonicSlack); c != 0 {
		t.Errorf("lo = 0: cut %v, want 0", c)
	}
	if c := ev.rPruneCut(math.NaN(), harmonicSlack); c != 0 {
		t.Errorf("lo = NaN: cut %v, want 0", c)
	}
	if c := ev.rPruneCut(ev.wNorm, harmonicSlack); !(c > 0.99 && c < 1) {
		t.Errorf("lo = wNorm: cut %v, want just under 1", c)
	}
	p.Sigma = 1e4
	wide := newEvaluatorFromTerms(rootsOfUnityTerms(8, 1), p, KindR)
	if c := wide.rPruneCut(wide.wNorm, harmonicSlack); c != 0 {
		t.Errorf("σ = 1e4: cut %v, want 0 (flat bound)", c)
	}
}
