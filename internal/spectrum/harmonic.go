package spectrum

import (
	"math"
	"sync"
)

// This file holds the FFT-style azimuth evaluator: the Q profile over an
// azimuth grid computed through a harmonic (Fourier) expansion instead of
// a dense per-cell × per-snapshot scan.
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
// small — 22 for the testbed's w = 4πr/λ ≈ 3.9 (harmonicsNeeded), far below
// the snapshot count. Accumulating the coefficients costs O(snapshots × H)
// (one sincos per snapshot, then multiply-adds), and synthesizing every
// azimuth cell costs O(cells × H) multiply-adds with no trig at all
// (Chebyshev-style recurrences supply cos/sin(mφ)). The dense scan is
// O(cells × snapshots) sincos calls; on the default 720-cell × 64-snapshot
// coarse grid the harmonic route is an order of magnitude cheaper.
//
// Exactness: the synthesized values differ from evalQExact only by Bessel
// truncation (≤ besselTailMax) and resummation rounding (≲1e-12) — bounded
// well under harmonicSlack. The argmax therefore cannot be read directly off
// the synthesized values without risking a flipped tie, so the coarse argmax
// (harmonicArgmax3D, allcells.go) collects every cell within 2·harmonicSlack
// of the synthesized maximum and rescores those few cells with the exact
// per-cell formula. It is one route for both peak searches, keyed by grid
// shape: the 3D search hands it the polar rows over [−π/2, π/2], each
// synthesized at its own cos γ, and the 2D search the single row γ = 0. Any
// cell the dense scan could have returned is within harmonicSlack of its
// synthesized value and hence inside the collection threshold, so the
// returned index is exactly the dense scan's argmax — which is what keeps
// the default-on harmonic path gated by the existing bit-identity suites.

// harmonicSlack is the documented bound on |synthesized − exact| per cell.
// It covers Bessel truncation (≤ besselTailMax) and synthesis rounding; the
// measured error is ~1e-12 (TestHarmonicSynthesisMatchesExact pins it), so
// 1e-6 leaves about six orders of margin.
const harmonicSlack = 1e-6

// besselTailMax bounds the truncation error of a normalized phasor sum
// synthesized from harmonics 0..H = harmonicsNeeded(w) over terms of
// aperture scale w_i ≤ w: at most 2·Σ_{m>H} max_i |J_m(w_i)|, and
// |J_m(w_i)| ≤ t_m(w) = (w/2)^m/m!, whose tail harmonicsNeeded sizes H by.
// It sits three orders under the 1e-12 synthesis error the refinement
// slacks assume (rExactMuRel).
const besselTailMax = 1e-15

// harmonicsNeeded returns the harmonic count H for aperture scale w: the
// least H whose Bessel tail fits besselTailMax, read off the bound
// |J_m(w)| ≤ t_m = (w/2)^m/m!. Once H+2 ≥ w every later term is at most
// half the one before (t_{m+1}/t_m = (w/2)/(m+1)), so the tail beyond H is
// ≤ 2·t_{H+1}, and H is the first such order with 2·2·t_{H+1} ≤
// besselTailMax: 22 at the testbed's w ≈ 3.85, 11 at w = 0.5, 51 at w = 20,
// where ⌈w⌉ + 20 left a 7e-10 tail (TestHarmonicCountTail). Raising w
// raises every t_m and the H+2 ≥ w floor, so H never decreases as w grows,
// which is what lets a fold at the largest scale serve every smaller one.
// The count stops at e²·w/2 + 64 regardless, where t_m ≤ (e·w/2m)^m ≤
// e^−64; only apertures past w ≈ 1400, whose t_m would overflow, reach
// that cap.
func harmonicsNeeded(w float64) int {
	x := math.Abs(w) / 2
	limit := math.E*math.E*x + 64
	t := 1.0 // t_m, m = H+1
	for m := 1; ; m++ {
		t *= x / float64(m)
		if float64(m+1) >= 2*x && 4*t <= besselTailMax || float64(m) >= limit {
			return m - 1
		}
	}
}

// besselSeriesMax is the aperture scale below which besselJArray sums the
// power series instead of recurring: the recurrence grows by Π 2m/w from
// its seed and overflows to NaN for w ≲ 4e-8 (a reader almost straight
// above or below a disk), while two series terms are exact to ~1e-21
// relative here.
const besselSeriesMax = 1e-5

// besselJArray fills out[m] = J_m(w) for m = 0..len(out)-1, w ≥ 0, using
// Miller's downward recurrence: seed a tiny J at a start order safely above
// the highest requested, recur down with J_{m-1} = (2m/w)·J_m − J_{m+1}
// (stable downward), and normalize with the identity
// J₀ + 2·Σ_{k≥1} J_{2k} = 1. Below besselSeriesMax it sums two terms of
// J_m(w) = (w/2)^m/m!·(1 − (w/2)²/(m+1) + …) instead.
func besselJArray(w float64, out []float64) {
	if len(out) == 0 {
		return
	}
	h := len(out) - 1
	clear(out)
	if w < besselSeriesMax {
		x, lead := w/2, 1.0 // lead = (w/2)^m/m!
		for m := range out {
			out[m] = lead * (1 - x*x/float64(m+1))
			lead *= x / float64(m+1)
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
	if nb == 0 { // never true (H ≥ 0); hands prove the bess[0] fact
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

// magBound returns an upper bound on the normalized magnitude |S(φ)|/n the
// coefficients synthesize at any φ: |A_m·cos mφ + B_m·sin mφ| ≤
// √(|A_m|²+|B_m|²) by Cauchy–Schwarz, so |S(φ)| ≤ |A₀| +
// 2·Σ_m √(|A_m|²+|B_m|²). O(H), no synthesis.
func (h *harmonicCoeffs) magBound() float64 {
	nb := h.maxM + 1
	aRe, aIm := h.aRe[:nb], h.aIm[:nb]
	bRe, bIm := h.bRe[:nb], h.bIm[:nb]
	if len(aRe) == 0 { // never true (maxM ≥ 0); hands prove the aRe[0] fact
		return 0
	}
	var sum float64
	for m := 1; m < len(aRe); m++ {
		sum += math.Sqrt(aRe[m]*aRe[m] + aIm[m]*aIm[m] + bRe[m]*bRe[m] + bIm[m]*bIm[m])
	}
	return (math.Hypot(aRe[0], aIm[0]) + 2*sum) / float64(h.n)
}

// harmonicScratch bundles the per-search harmonic buffers; Evaluators pool
// them so steady-state harmonic searches allocate nothing.
type harmonicScratch struct {
	coeffs    harmonicCoeffs
	bess      []float64
	vals      []float64
	shortlist []maxEntry // the coarse argmax's (cell, synthesized value) list
	rows      []sweptRow // harmonicArgmax3D's polar rows, in rIncumbent3D's sweep order
	sums      []float64  // rIncumbent3D's Ŝ per synthesized row (rowSums)
	sinPhi    []float64  // the coarse grid's azimuth trig, read-only (azimuthTrig)
	cosPhi    []float64
	unit      harmonicCoeffs // foldUnitSums' γ-free sums (synthRounds)
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

// azimuthTrig sets hs.sinPhi/cosPhi to the plan cache's trig tables for
// the n azimuths φ_a = a·step and returns them. They are shared and
// read-only, so the coarse argmax holds no trig buffer of its own: one in an
// Evaluator's Scratch would be allocated afresh by nearly every scan
// (Evaluators are built per tag and pass), and one here would stay live in
// the pool.
func (hs *harmonicScratch) azimuthTrig(n int, step float64) (sinPhi, cosPhi []float64) {
	hs.sinPhi, hs.cosPhi = planCache.table(planKey{n: n, step: step})
	return hs.sinPhi, hs.cosPhi
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
	hs.coeffs.reset(nb - 1)
	hs.coeffs.addScaled(&hs.unit, bess)
	hs.coeffs.n = hs.unit.n
}

// addScaled adds bess[m] times u's harmonic m to h's, for m < len(bess):
// the coefficients of u's unit sums at the scale bess was tabulated for.
// h must hold at least len(bess) harmonics and u must have been folded
// with at least as many.
func (h *harmonicCoeffs) addScaled(u *harmonicCoeffs, bess []float64) {
	aRe, aIm := h.aRe[:len(bess)], h.aIm[:len(bess)]
	bRe, bIm := h.bRe[:len(bess)], h.bIm[:len(bess)]
	uaRe, uaIm := u.aRe[:len(bess)], u.aIm[:len(bess)]
	ubRe, ubIm := u.bRe[:len(bess)], u.bIm[:len(bess)]
	for m, j := range bess {
		aRe[m] += j * uaRe[m]
		aIm[m] += j * uaIm[m]
		bRe[m] += j * ubRe[m]
		bIm[m] += j * ubIm[m]
	}
	h.maxM = max(h.maxM, len(bess)-1)
}
