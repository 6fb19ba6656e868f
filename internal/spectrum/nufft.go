package spectrum

import (
	"math"
	"sync"
)

// This file holds the type-2 NUFFT synthesis stage: evaluating the harmonic
// coefficient fold (harmonic.go) on an *arbitrary* target grid, lifting the
// uniform-step restriction of the Chebyshev recurrences that back
// harmonicArgmax2D and friends.
//
// The harmonic fold produces a trigonometric polynomial
//
//	T(φ) = A₀ + 2·Σ_{m=1}^{M} (A_m·cos mφ + B_m·sin mφ)
//
// of bandwidth M = maxM (≈25 on the testbed). Evaluating T at n arbitrary
// angles directly costs O(n·M) plus one sincos per angle; the NUFFT route
// amortizes the per-target work down to O(1) in M:
//
//  1. Deconvolve: scale harmonic m by e^{+τm²}. Convolving with the
//     periodized Gaussian G_τ(x) = Σ_k e^{−(x+2πk)²/4τ} multiplies harmonic
//     m by e^{−τm²} (G_τ's Fourier coefficient, up to the quadrature
//     prefactor folded into the taps below), so the spread in step 3 lands
//     back on the original polynomial.
//  2. Synthesize the deconvolved polynomial on a uniform oversampled grid of
//     U = nextPow2(2·(2M+1)) points with the existing Chebyshev synthesis
//     (synthesizeComplex) over a plan-cached trig table — O(U·M) once,
//     shared by every target.
//  3. Spread: each target φ reads the 2W+1 nearest grid samples through
//     truncated Gaussian taps. With h = 2π/U, δ = φ − u₀h the offset from
//     the nearest grid point, the tap at grid point u₀+j is
//
//	w_j = e^{−(δ−jh)²/4τ} = E0·E1^j·E2_{|j|},
//	E0 = e^{−δ²/4τ}, E1 = e^{δh/2τ}, E2_j = e^{−(jh)²/4τ},
//
//     so the whole stencil costs two small-range exponentials (|exponent| ≤
//     π√(1−2M/U)/W < 0.4, a short Taylor polynomial suffices — see
//     nufftExpSmall) plus 2W running multiplies; E2 is a precomputed table
//     with the trapezoid prefactor h/(2√(πτ)) folded in.
//
// Error bound (Greengard–Lee / Dutt–Rokhlin analysis, derived in DESIGN.md
// §14): with the parameter balance τU² = πW/√(1−2M/U), the trapezoid
// aliasing error and the tap truncation error are equalized at
//
//	ε_kernel = O(e^{−πW·√(1−2M/U)}) ≤ e^{−πW/√2} ≈ 2e−8   (W = 8),
//
// relative to Σ_m |deconvolved coefficient| — comfortably inside the
// nufftSlackQ/nufftSlackR shortlist windows below. The oversampling
// U ≥ 2·(2M+1) guarantees 1 − 2M/U > 1/2, so the bound holds for every
// bandwidth the fold can produce; TestNUFFTSynthError pins the measured
// error at least an order of magnitude under the windows.
//
// Exactness contract: like every accelerated route in this package, the
// NUFFT argmax keeps the PR-7 shortlist-then-rescore contract — collect the
// cells within the documented window of the synthesized maximum, rescore
// them with the exact per-cell formula (ascending index, strict >) — so the
// returned index is bit-identical to the dense scan over the same angle
// grid. Synthesized *values* (profiles) carry the kernel error instead and
// are gated by their own slack contract.

const (
	// nufftHalfWidth is W: the Gaussian spreading stencil reaches W grid
	// points to each side of the target's nearest grid point. W = 8 puts
	// the kernel error near 2e−8 (see the bound above) at ~70 flops per
	// target; the shortlist windows hold two decades of margin over it.
	nufftHalfWidth = 8

	// nufftSlackQ bounds |NUFFT-synthesized − exact| per cell for Q values.
	// Budget: spreading kernel ≤ ~2e−8 (bound above, amplified ≤ e^{τM²} ≈
	// 3× by deconvolution), direct-regime synthesis ≤ the harmonic budget
	// (~1e−12), small-range exp polynomial ≤ 1e−9. Matching harmonicSlack
	// keeps one Q window constant per route family.
	nufftSlackQ = 1e-6

	// nufftSlackR bounds the extra per-cell error of the R weighting pass
	// when its pass-one phasor sums come from the spreader instead of the
	// exact synthesis: the spread error ≤ nufftSlackQ perturbs the robust
	// circular mean by Δμ̂ ≤ nufftSlackQ/nufftMuGuard ≈ 1e−4, and
	// |∂R/∂μ̂| ≤ wNorm·e^{−1/2}/σ_w ≈ 11 at the σ floor, giving ≤ 1.1e−4;
	// 2e−4 covers it with margin. Argmax windows add the coarse-kernel
	// term rCoarseRel·wNorm on top, exactly like harmonicArgmaxR2D.
	nufftSlackR = 2e-4

	// nufftMuGuard is the |Ŝ(φ)|/n floor below which a spread-sourced
	// robust mean is not trusted (the NUFFT analogue of muGuardFrac,
	// raised because the spreader's error is ~1e−7 instead of ~1e−12):
	// guarded cells fall back to the dense per-cell R evaluation inside
	// weightRowR, keeping the Δμ̂ term of the nufftSlackR budget honest.
	nufftMuGuard = 1e-2

	// nufftMinCells is the target count below which gridded spreading
	// loses to direct per-cell Chebyshev synthesis: the U·M grid synthesis
	// (~128·25 madds) amortizes only once ~128 targets each save their
	// O(M) recurrence plus a sincos. Below it the NUFFT route evaluates
	// targets directly (synthAt) — the small-count regime of a type-2
	// transform — with the same shortlist window.
	nufftMinCells = 128

	// uniformAngleTol is the absolute gap tolerance (radians) under which
	// an angle grid counts as uniform-step: UniformAngles grids pass at
	// ~1e−15 gap wobble, any intentional jitter is ≥ microradians.
	uniformAngleTol = 1e-9
)

// anglesApproxUniform reports whether the grid's consecutive gaps all match
// the first gap within uniformAngleTol. Grids shorter than 3 cells are
// trivially uniform. Profile metrics use it to reject bin-count arithmetic
// on non-uniform grids (HalfPowerBeamwidth), and the routing tests pin it.
func anglesApproxUniform(angles []float64) bool {
	if len(angles) < 3 {
		return true
	}
	g0 := angles[1] - angles[0]
	for k := 2; k < len(angles); k++ {
		if d := angles[k] - angles[k-1] - g0; d > uniformAngleTol || d < -uniformAngleTol {
			return false
		}
	}
	return true
}

// nufftExpSmall evaluates e^z for |z| ≤ 0.4 by a degree-9 Taylor polynomial
// (Horner). The remainder |z|¹⁰/10!·e^|z| is < 5e−11 on the domain — the
// spreading exponents δ²/4τ and |δ|h/2τ are both bounded by
// π√(1−2M/U)/W < 0.4 because δ is measured from the *nearest* grid point —
// so the running-product weights stay within ~1e−9 of math.Exp at a tenth
// of its cost.
func nufftExpSmall(z float64) float64 {
	return 1 + z*(1+z*(1.0/2+z*(1.0/6+z*(1.0/24+z*(1.0/120+z*(1.0/720+
		z*(1.0/5040+z*(1.0/40320+z*(1.0/362880)))))))))
}

// nufftScratch holds one prepared spreading plan: the τ/U parameters, the
// deconvolution and tap tables, the oversampled grid trig (plan-cached), and
// the halo-padded grid buffers. Plans depend only on the fold's maxM, so a
// pooled instance is almost always reused as-is; prepare rebuilds the tables
// only when maxM changes.
type nufftScratch struct {
	maxM    int
	u       int     // oversampled grid size (power of two)
	h       float64 // grid step 2π/u
	invH    float64
	invU    float64
	e0Scale float64 // 1/(4τ)
	e1Scale float64 // h/(2τ)
	// deconv[m] = e^{+τm²}; taps[j] = (h/2√(πτ))·e^{−(jh)²/4τ}.
	deconv []float64
	taps   []float64
	coeffs harmonicCoeffs // deconvolved copy of the caller's fold
	// haloRe/haloIm hold the grid synthesis with nufftHalfWidth wrapped
	// cells replicated on each side, so the spreading stencil never
	// branches on the circular seam: halo[i] is grid cell (i−W) mod u.
	haloRe, haloIm []float64
	sinU, cosU     []float64
}

var nufftPool = sync.Pool{New: func() any { return new(nufftScratch) }}

// prepare sizes the plan for a fold of bandwidth maxM. U doubles the Nyquist
// count 2M+1 and rounds to a power of two, so the oversampling factor is
// always ≥ 2 and the aliasing term of the error bound never degenerates.
func (p *nufftScratch) prepare(maxM int) {
	if p.maxM == maxM && p.u != 0 {
		return
	}
	const w = nufftHalfWidth
	u := 1
	for u < 2*(2*maxM+1) {
		u <<= 1
	}
	h := 2 * math.Pi / float64(u)
	// τU² = πW/√(1−2M/U) balances grid aliasing e^{−τU(U−2M)} against tap
	// truncation e^{−(Wh)²/4τ}; both land at e^{−πW√(1−2M/U)}.
	frac := 1 - float64(2*maxM)/float64(u)
	tau := math.Pi * float64(w) / (math.Sqrt(frac) * float64(u) * float64(u))
	p.maxM = maxM
	p.u = u
	p.h = h
	p.invH = 1 / h
	p.invU = 1 / float64(u)
	p.e0Scale = 1 / (4 * tau)
	p.e1Scale = h / (2 * tau)
	if cap(p.deconv) < maxM+1 {
		p.deconv = make([]float64, maxM+1)
	}
	p.deconv = p.deconv[:maxM+1]
	deconv := p.deconv
	for m := range deconv {
		deconv[m] = math.Exp(tau * float64(m*m))
	}
	if cap(p.taps) < w+1 {
		p.taps = make([]float64, w+1)
	}
	p.taps = p.taps[:w+1]
	pref := h / (2 * math.Sqrt(math.Pi*tau))
	taps := p.taps
	for j := range taps {
		taps[j] = pref * math.Exp(-float64(j*j)*h*h*p.e0Scale)
	}
	need := u + 2*w + 1
	if cap(p.haloRe) < need {
		backing := make([]float64, 2*need)
		p.haloRe = backing[:need:need]
		p.haloIm = backing[need:]
	}
	p.haloRe = p.haloRe[:need]
	p.haloIm = p.haloIm[:need]
	if cap(p.sinU) < u {
		backing := make([]float64, 2*u)
		p.sinU = backing[:u:u]
		p.cosU = backing[u:]
	}
	p.sinU = p.sinU[:u]
	p.cosU = p.cosU[:u]
	// The oversampled grid is uniform by construction, so its trig table
	// comes from the shared plan cache like every uniform coarse grid.
	planCache.fill(p.sinU, p.cosU, planKey{i0: 0, n: u, step: h})
}

// gridSynth runs steps 1–2: deconvolve hc into p.coeffs and synthesize the
// deconvolved polynomial onto the halo-padded oversampled grid.
func (p *nufftScratch) gridSynth(hc *harmonicCoeffs) {
	p.prepare(hc.maxM)
	const w = nufftHalfWidth
	u := p.u
	nb := hc.maxM + 1
	p.coeffs.reset(hc.maxM)
	deconv := p.deconv[:nb]
	srcARe, srcAIm := hc.aRe[:nb], hc.aIm[:nb]
	srcBRe, srcBIm := hc.bRe[:nb], hc.bIm[:nb]
	dstARe, dstAIm := p.coeffs.aRe[:nb], p.coeffs.aIm[:nb]
	dstBRe, dstBIm := p.coeffs.bRe[:nb], p.coeffs.bIm[:nb]
	for m := 0; m < nb; m++ {
		d := deconv[m]
		dstARe[m] = srcARe[m] * d
		dstAIm[m] = srcAIm[m] * d
		dstBRe[m] = srcBRe[m] * d
		dstBIm[m] = srcBIm[m] * d
	}
	p.coeffs.n = hc.n
	p.coeffs.maxM = hc.maxM
	p.coeffs.synthesizeComplex(p.haloRe[w:w+u], p.haloIm[w:w+u], p.sinU, p.cosU)
	hr, hi := p.haloRe, p.haloIm
	copy(hr[:w], hr[u:u+w])
	copy(hi[:w], hi[u:u+w])
	copy(hr[w+u:w+u+w+1], hr[w:w+w+1])
	copy(hi[w+u:w+u+w+1], hi[w:w+w+1])
}

// spreadComplex runs step 3 for complex outputs: outRe/outIm[k] ≈
// Ŝ(angles[k])/n. gridSynth must have run for the same fold.
func (p *nufftScratch) spreadComplex(angles, outRe, outIm []float64) {
	const w = nufftHalfWidth
	uF := float64(p.u)
	invH, invU, h := p.invH, p.invU, p.h
	e0Scale, e1Scale := p.e0Scale, p.e1Scale
	taps := p.taps[:w+1]
	hr, hi := p.haloRe, p.haloIm
	outRe = outRe[:len(angles)]
	outIm = outIm[:len(angles)]
	for k, phi := range angles {
		x := phi * invH
		x -= math.Floor(x*invU) * uF // grid units, wrapped into [0, u]
		u0 := int(x + 0.5)           // nearest grid index
		d := (x - float64(u0)) * h   // offset in radians, |d| ≤ h/2
		e0 := nufftExpSmall(-d * d * e0Scale)
		t := d * e1Scale
		e1 := nufftExpSmall(t)
		e1i := nufftExpSmall(-t)
		hrw := hr[u0 : u0+2*w+1]
		hiw := hi[u0 : u0+2*w+1]
		t0 := e0 * taps[0]
		re := t0 * hrw[w]
		im := t0 * hiw[w]
		pf, pb := e0, e0
		for j := 1; j <= w; j++ {
			pf *= e1
			pb *= e1i
			tj := taps[j]
			wf, wb := tj*pf, tj*pb
			re += wf*hrw[w+j] + wb*hrw[w-j]
			im += wf*hiw[w+j] + wb*hiw[w-j]
		}
		outRe[k] = re
		outIm[k] = im
	}
}

// spreadMag is spreadComplex for the magnitude-only Q route: out[k] ≈
// |Ŝ(angles[k])|/n without materializing the complex intermediates.
func (p *nufftScratch) spreadMag(angles, out []float64) {
	const w = nufftHalfWidth
	uF := float64(p.u)
	invH, invU, h := p.invH, p.invU, p.h
	e0Scale, e1Scale := p.e0Scale, p.e1Scale
	taps := p.taps[:w+1]
	hr, hi := p.haloRe, p.haloIm
	out = out[:len(angles)]
	for k, phi := range angles {
		x := phi * invH
		x -= math.Floor(x*invU) * uF
		u0 := int(x + 0.5)
		d := (x - float64(u0)) * h
		e0 := nufftExpSmall(-d * d * e0Scale)
		t := d * e1Scale
		e1 := nufftExpSmall(t)
		e1i := nufftExpSmall(-t)
		hrw := hr[u0 : u0+2*w+1]
		hiw := hi[u0 : u0+2*w+1]
		t0 := e0 * taps[0]
		re := t0 * hrw[w]
		im := t0 * hiw[w]
		pf, pb := e0, e0
		for j := 1; j <= w; j++ {
			pf *= e1
			pb *= e1i
			tj := taps[j]
			wf, wb := tj*pf, tj*pb
			re += wf*hrw[w+j] + wb*hrw[w-j]
			im += wf*hiw[w+j] + wb*hiw[w-j]
		}
		out[k] = math.Sqrt(re*re + im*im)
	}
}

// synthAtComplex evaluates the normalized complex phasor sum Ŝ(φ)/n at one
// arbitrary angle by direct Chebyshev recurrence — the small-count regime of
// the type-2 transform.
func (h *harmonicCoeffs) synthAtComplex(phi float64) (float64, float64) {
	s1, c1 := math.Sincos(phi)
	nb := h.maxM + 1
	aRe, aIm := h.aRe[:nb], h.aIm[:nb]
	bRe, bIm := h.bRe[:nb], h.bIm[:nb]
	if len(aRe) == 0 {
		return 0, 0
	}
	sumRe, sumIm := aRe[0], aIm[0]
	cPrev, sPrev := 1.0, 0.0
	cCur, sCur := c1, s1
	for m := 1; m < nb; m++ {
		sumRe += 2 * (aRe[m]*cCur + bRe[m]*sCur)
		sumIm += 2 * (aIm[m]*cCur + bIm[m]*sCur)
		cCur, cPrev = 2*c1*cCur-cPrev, cCur
		sCur, sPrev = 2*c1*sCur-sPrev, sCur
	}
	inv := 1 / float64(h.n)
	return sumRe * inv, sumIm * inv
}

// synthAt is synthAtComplex's magnitude: |Ŝ(φ)|/n at one arbitrary angle.
func (h *harmonicCoeffs) synthAt(phi float64) float64 {
	re, im := h.synthAtComplex(phi)
	return math.Sqrt(re*re + im*im)
}

// nufftSynthQ fills out[k] with the synthesized |Ŝ(angles[k])|/n, choosing
// gridded spreading or direct per-cell synthesis by target count. Values are
// within nufftSlackQ of the exact dense profile.
func nufftSynthQ(hc *harmonicCoeffs, angles, out []float64) {
	if len(angles) >= nufftMinCells {
		p := nufftPool.Get().(*nufftScratch)
		p.gridSynth(hc)
		p.spreadMag(angles, out)
		nufftPool.Put(p)
		return
	}
	out = out[:len(angles)]
	for k, phi := range angles {
		out[k] = hc.synthAt(phi)
	}
}

// nufftSynthComplex is nufftSynthQ for complex outputs — the pass-one feed
// of the R weighting replay.
func nufftSynthComplex(hc *harmonicCoeffs, angles, outRe, outIm []float64) {
	if len(angles) >= nufftMinCells {
		p := nufftPool.Get().(*nufftScratch)
		p.gridSynth(hc)
		p.spreadComplex(angles, outRe, outIm)
		nufftPool.Put(p)
		return
	}
	outRe = outRe[:len(angles)]
	outIm = outIm[:len(angles)]
	for k, phi := range angles {
		outRe[k], outIm[k] = hc.synthAtComplex(phi)
	}
}

// nufftArgmaxQ returns the dense-scan argmax index over an arbitrary angle
// grid for KindQ: fold the coefficients over terms (γ = 0), synthesize every
// cell (NUFFT or direct), shortlist within 2·nufftSlackQ of the synthesized
// maximum, exact-rescore.
func (e *Evaluator) nufftArgmaxQ(terms termSlices, angles []float64) int {
	hs := harmPool.Get().(*harmonicScratch)
	defer harmPool.Put(hs)
	foldTermsHarmonic(hs, terms, 1)
	n := len(angles)
	vals := hs.values(n)
	nufftSynthQ(&hs.coeffs, angles, vals)
	maxV := maxOf(vals)
	cand := hs.cand[:0]
	for k, v := range vals {
		if v >= maxV-2*nufftSlackQ {
			cand = append(cand, k)
		}
	}
	hs.cand = cand
	return e.rescoreAngles(terms, cand, angles)
}

// nufftArgmaxR is nufftArgmaxQ for KindR: the spread (or direct) complex
// sums feed the same two-pass robust weighting kernel the uniform harmonic-R
// route uses (weightRowR with shortlist-grade coarse kernels), with the μ̂
// guard raised to nufftMuGuard and the window widened to cover both the
// spreader and the coarse kernels. Like harmonicArgmaxR2D it first scores
// the largest-|Ŝ| cell exactly and skips the weighting pass of every cell
// the resulting cut rules out (rPruneCut, allcells.go) — the cut widened by
// nufftSlackQ, the spread magnitudes' error bound. The exact rescore then
// erases all of it.
func (e *Evaluator) nufftArgmaxR(terms termSlices, angles []float64) int {
	hs := harmPool.Get().(*harmonicScratch)
	defer harmPool.Put(hs)
	foldTermsHarmonic(hs, terms, 1)
	n := len(angles)
	vals := hs.values(n)
	sc := e.getScratch()
	fillAngleTrig(sc, angles)
	sc.ensureRow(n)
	qRe := sc.sumRe[:n]
	qIm := sc.sumIm[:n]
	nufftSynthComplex(&hs.coeffs, angles, qRe, qIm)
	sinPhi, cosPhi := sc.sinPhi[:n], sc.cosPhi[:n]
	cut2 := e.rPruneCut(e.rIncumbent(terms, sc, 1, sinPhi, cosPhi, qRe, qIm), nufftSlackQ)
	e.weightRowR(terms, sc, 1, sinPhi, cosPhi, qRe, qIm, vals, true, nufftMuGuard, cut2)
	e.putScratch(sc)
	maxV := maxOf(vals)
	window := 2 * (nufftSlackR + rCoarseRel*e.wNorm)
	cand := hs.cand[:0]
	for k, v := range vals {
		if v >= maxV-window {
			cand = append(cand, k)
		}
	}
	hs.cand = cand
	return e.rescoreAngles(terms, cand, angles)
}
