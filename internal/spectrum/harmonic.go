package spectrum

import (
	"math"
	"sync"
)

// This file holds the FFT-style azimuth evaluator: the Q profile over an
// azimuth grid — uniform or an arbitrary angle list — computed through a
// harmonic (Fourier) expansion instead of a dense per-cell × per-snapshot
// scan.
//
// The unnormalized Q phasor sum at fixed polar angle γ is
//
//	S(φ) = Σ_i e^{j(ρ_i + w_i·cos(φ − a_i))},   w_i = z_i·cos γ,
//
// a trigonometric polynomial in φ whose bandwidth is bounded by max w_i
// (each summand's instantaneous frequency is |w_i·sin(φ−a_i)| ≤ w_i). The
// Jacobi–Anger expansion makes the structure explicit:
//
//	e^{jw·cosθ} = J₀(w) + 2·Σ_{m≥1} j^m·J_m(w)·cos(mθ),
//
// so with cos(m(φ−a_i)) = cos(ma_i)cos(mφ) + sin(ma_i)sin(mφ),
//
//	S(φ) = A₀ + 2·Σ_{m=1}^{H} (A_m·cos(mφ) + B_m·sin(mφ)),
//	A_m  = Σ_i j^m·J_m(w_i)·e^{jρ_i}·cos(m·a_i)   (complex; j^m folded in),
//	B_m  = Σ_i j^m·J_m(w_i)·e^{jρ_i}·sin(m·a_i).
//
// The Bessel factors J_m(w) die super-exponentially past m ≈ w, so H stays
// ~w + 20 ≈ 25 for the testbed's w = 4πr/λ ≈ 3.9 — far below the snapshot
// count. Accumulating the coefficients costs O(snapshots × H) (one sincos
// per snapshot, then multiply-adds), and synthesizing every azimuth cell
// costs O(cells × H) multiply-adds with no trig at all (Chebyshev-style
// recurrences supply cos/sin(mφ)). The dense scan is O(cells × snapshots)
// sincos calls; on the default 720-cell × 64-snapshot coarse grid the
// harmonic route is an order of magnitude cheaper.
//
// Exactness: the synthesized values differ from evalQExact only by Bessel
// truncation (≲1e-14) and resummation rounding (≲1e-12) — bounded well
// under harmonicSlack. The argmax therefore cannot be read directly off the
// synthesized values without risking a flipped tie, so coarseArgmax2D
// collects every cell within 2·harmonicSlack of the synthesized maximum and
// rescores those few cells with the exact per-cell formula. Any cell the
// dense scan could have returned is within harmonicSlack of its synthesized
// value and hence inside the collection threshold, so the returned index is
// exactly the dense scan's argmax — which is what keeps the default-on
// harmonic path gated by the existing bit-identity suites.

// harmonicSlack is the documented bound on |synthesized − exact| per cell.
// It covers Bessel truncation (≲1e-20) and synthesis rounding; the measured
// error is ~1e-12 (TestHarmonicSynthesisMatchesExact pins it), so 1e-6
// leaves about six orders of margin.
const harmonicSlack = 1e-6

// harmonicsNeeded returns the harmonic count H for aperture scale w:
// J_m(w) ≈ (w/2)^m/m! for m ≫ w, so H = ⌈w⌉ + 20 puts the truncated tail
// below 1e-20 — far under harmonicSlack.
func harmonicsNeeded(w float64) int {
	if w < 0 {
		w = -w
	}
	return int(math.Ceil(w)) + 20
}

// besselJArray fills out[m] = J_m(w) for m = 0..len(out)-1 using Miller's
// downward recurrence: seed a tiny J at a start order safely above the
// highest requested, recur down with J_{m-1} = (2m/w)·J_m − J_{m+1} (stable
// downward), and normalize with the identity J₀ + 2·Σ_{k≥1} J_{2k} = 1.
func besselJArray(w float64, out []float64) {
	if len(out) == 0 {
		return
	}
	h := len(out) - 1
	clear(out)
	if w < 1e-12 {
		// J₀(0) = 1; higher orders vanish (J₁(w) ≈ w/2 covers the rounding
		// tail for denormal-scale w).
		out[0] = 1
		if h >= 1 {
			out[1] = w / 2
		}
		return
	}
	start := h + 16
	if start&1 == 1 {
		start++
	}
	var (
		jNext = 0.0   // J_{m+1}, unnormalized
		jCur  = 1e-30 // J_m, unnormalized
		norm  float64
	)
	for m := start; m >= 0; m-- {
		if uint(m) < uint(len(out)) { // m ≤ h, in the form the prove pass reads
			out[m] = jCur
		}
		if m == 0 {
			norm += jCur
		} else if m&1 == 0 {
			norm += 2 * jCur
		}
		if m > 0 {
			jPrev := float64(2*m)/w*jCur - jNext
			jNext = jCur
			jCur = jPrev
		}
	}
	inv := 1 / norm
	for i := range out {
		out[i] *= inv
	}
}

// harmonicCoeffs accumulates the twisted Fourier coefficients of the Q
// phasor sum. Entry m of aRe/aIm is the complex A_m above (j^m already
// folded in), bRe/bIm is B_m; index 0 of b is unused (sin 0 = 0). The
// accumulation is a per-snapshot fold — term order is the only order.
type harmonicCoeffs struct {
	aRe, aIm []float64
	bRe, bIm []float64
	n        int // snapshots folded in (the 1/n normalization)
	maxM     int // highest harmonic any folded term touched
}

// reset clears the coefficients for reuse, growing to hold harmonics up to
// order maxM.
func (h *harmonicCoeffs) reset(maxM int) {
	need := maxM + 1
	if cap(h.aRe) < need {
		backing := make([]float64, 4*need)
		h.aRe = backing[0*need : 1*need : 1*need]
		h.aIm = backing[1*need : 2*need : 2*need]
		h.bRe = backing[2*need : 3*need : 3*need]
		h.bIm = backing[3*need : 4*need : 4*need]
	}
	h.aRe = h.aRe[:need]
	h.aIm = h.aIm[:need]
	h.bRe = h.bRe[:need]
	h.bIm = h.bIm[:need]
	clear(h.aRe)
	clear(h.aIm)
	clear(h.bRe)
	clear(h.bIm)
	h.n = 0
	h.maxM = 0
}

// foldTerm folds one snapshot term into the coefficients. bess must hold
// J_0..J_H(w) for this term's w = z·cos γ (besselJArray); the fold touches
// harmonics 0..H only, so each term contributes exactly the same bits
// whether folded batch-style or one Add at a time. Cost: one sincos plus
// O(H) multiply-adds — cos/sin(m·a) and the j^m twist both advance by
// recurrence.
func (h *harmonicCoeffs) foldTerm(relPhase, cosA, sinA float64, bess []float64) {
	sinRho, cosRho := math.Sincos(relPhase)
	// j^m·e^{jρ}: rotate by 90° per harmonic.
	reRot, imRot := cosRho, sinRho
	// cos(m·a), sin(m·a) by the Chebyshev-style recurrence
	// x_{m+1} = 2·cos a·x_m − x_{m-1}.
	cPrev, sPrev := 1.0, 0.0
	cCur, sCur := cosA, sinA
	// Reslice the coefficient banks to the harmonic count up front: one
	// length check here instead of four bounds checks per iteration.
	nb := len(bess)
	if nb == 0 { // never true (H ≥ 20); hands prove the bess[0] fact
		return
	}
	aRe, aIm := h.aRe[:nb], h.aIm[:nb]
	bRe, bIm := h.bRe[:nb], h.bIm[:nb]
	aRe[0] += bess[0] * reRot
	aIm[0] += bess[0] * imRot
	for m := 1; m < nb; m++ {
		reRot, imRot = -imRot, reRot // multiply by j
		jm := bess[m]
		aRe[m] += jm * reRot * cCur
		aIm[m] += jm * imRot * cCur
		bRe[m] += jm * reRot * sCur
		bIm[m] += jm * imRot * sCur
		cCur, cPrev = 2*cosA*cCur-cPrev, cCur
		sCur, sPrev = 2*cosA*sCur-sPrev, sCur
	}
	h.n++
	if len(bess)-1 > h.maxM {
		h.maxM = len(bess) - 1
	}
}

// synthesize materializes the normalized Q value at every grid cell from
// the accumulated coefficients: out[k] = |S(φ_k)|/n, with cos/sin(m·φ_k)
// advanced by recurrence from the supplied first-harmonic tables. No trig
// in the loop — O(maxM) multiply-adds per cell.
func (h *harmonicCoeffs) synthesize(out, sinPhi, cosPhi []float64) {
	inv := 1 / float64(h.n)
	nb := h.maxM + 1
	aRe, aIm := h.aRe[:nb], h.aIm[:nb]
	bRe, bIm := h.bRe[:nb], h.bIm[:nb]
	if len(aRe) == 0 { // never true (maxM ≥ 0); hands prove the aRe[0] fact
		return
	}
	re0, im0 := aRe[0], aIm[0]
	n := len(out)
	sinPhi = sinPhi[:n]
	cosPhi = cosPhi[:n]
	for k := 0; k < n; k++ {
		c1, s1 := cosPhi[k], sinPhi[k]
		sumRe, sumIm := re0, im0
		cPrev, sPrev := 1.0, 0.0
		cCur, sCur := c1, s1
		for m := 1; m < nb; m++ {
			sumRe += 2 * (aRe[m]*cCur + bRe[m]*sCur)
			sumIm += 2 * (aIm[m]*cCur + bIm[m]*sCur)
			cCur, cPrev = 2*c1*cCur-cPrev, cCur
			sCur, sPrev = 2*c1*sCur-sPrev, sCur
		}
		out[k] = math.Sqrt(sumRe*sumRe+sumIm*sumIm) * inv
	}
}

// harmonicScratch bundles the per-search harmonic buffers; Evaluators pool
// them so steady-state harmonic searches allocate nothing.
type harmonicScratch struct {
	coeffs    harmonicCoeffs
	bess      []float64
	vals      []float64
	shortlist []maxEntry     // the coarse routes' (cell, synthesized value) list
	rowMax    []float64      // rIncumbent3D's per-row max |Ŝ|²/n²
	unit      harmonicCoeffs // foldUnitSums' γ-free sums (refine3D)
}

var harmPool = sync.Pool{New: func() any { return new(harmonicScratch) }}

// values returns hs.vals resized to n, growing it if needed: the
// synthesized values of one grid row or refinement round.
func (hs *harmonicScratch) values(n int) []float64 {
	if cap(hs.vals) < n {
		hs.vals = make([]float64, n)
	}
	return hs.vals[:n]
}

// maxOf returns the largest of vals (−Inf when empty).
func maxOf(vals []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// foldTermsHarmonic folds a whole term set (at fixed γ) into hs.coeffs.
// The Bessel table depends on the term only through w = z_i·cos γ, so it is
// recomputed only when w changes from the previous term: a channel-filtered
// session (one wavelength, one z) computes one table per fold instead of
// one per term. The table is a pure function of w, so reusing it cannot
// move a coefficient bit.
func foldTermsHarmonic(hs *harmonicScratch, terms termSlices, cosGamma float64) {
	maxM := harmonicsNeeded(terms.maxScale() * math.Abs(cosGamma))
	hs.coeffs.reset(maxM)
	if cap(hs.bess) < maxM+1 {
		hs.bess = make([]float64, maxM+1)
	}
	m := terms.n()
	relPhase := terms.relPhase[:m]
	cosA := terms.cosA[:m]
	sinA := terms.sinA[:m]
	scale := terms.scale[:m]
	var bess []float64
	prevW := math.NaN() // compares unequal to every w, so term 0 computes
	for i := 0; i < m; i++ {
		if w := scale[i] * cosGamma; w != prevW {
			bess = hs.bess[:harmonicsNeeded(w)+1]
			besselJArray(w, bess)
			prevW = w
		}
		hs.coeffs.foldTerm(relPhase[i], cosA[i], sinA[i], bess)
	}
}

// foldUnitSums folds a term set into hs.unit with every Bessel factor set
// to 1, so entry m holds Σ_i j^m·e^{jρ_i}·cos(m·a_i) (and the sin
// counterpart) — the half of the fold that does not depend on γ. For a
// term set whose terms share one aperture scale z (termSlices.singleScale)
// the coefficients at any cos γ are these sums times J_m(z·cos γ)
// (scaleUnitSums), so a sweep over polar rows folds the terms once instead
// of once per row.
func foldUnitSums(hs *harmonicScratch, terms termSlices) {
	maxM := harmonicsNeeded(terms.maxScale())
	hs.unit.reset(maxM)
	if cap(hs.bess) < maxM+1 {
		hs.bess = make([]float64, maxM+1)
	}
	ones := hs.bess[:maxM+1]
	for i := range ones {
		ones[i] = 1
	}
	m := terms.n()
	relPhase := terms.relPhase[:m]
	cosA := terms.cosA[:m]
	sinA := terms.sinA[:m]
	for i := 0; i < m; i++ {
		hs.unit.foldTerm(relPhase[i], cosA[i], sinA[i], ones)
	}
}

// scaleUnitSums sets hs.coeffs to the coefficients at w = z·cos γ of the
// single-scale term set foldUnitSums folded: A_m = J_m(w)·Σ_i j^m·e^{jρ_i}·
// cos(m·a_i), and B_m alike. That is foldTermsHarmonic's result with J_m(w)
// factored out of the sum — the same harmonics 0..harmonicsNeeded(w), the
// same value up to summation rounding (≲1e-13, far inside harmonicSlack) —
// at O(H) per row instead of O(terms·H).
func scaleUnitSums(hs *harmonicScratch, w float64) {
	nb := harmonicsNeeded(w) + 1
	if cap(hs.bess) < nb {
		hs.bess = make([]float64, nb)
	}
	bess := hs.bess[:nb]
	besselJArray(w, bess)
	h, u := &hs.coeffs, &hs.unit
	h.reset(nb - 1)
	aRe, aIm := h.aRe[:len(bess)], h.aIm[:len(bess)]
	bRe, bIm := h.bRe[:len(bess)], h.bIm[:len(bess)]
	uaRe, uaIm := u.aRe[:len(bess)], u.aIm[:len(bess)]
	ubRe, ubIm := u.bRe[:len(bess)], u.bIm[:len(bess)]
	for m, j := range bess {
		aRe[m], aIm[m] = j*uaRe[m], j*uaIm[m]
		bRe[m], bIm[m] = j*ubRe[m], j*ubIm[m]
	}
	h.n = u.n
	h.maxM = nb - 1
}
