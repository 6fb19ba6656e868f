package spectrum

import (
	"math"

	"github.com/tagspin/tagspin/internal/mathx"
)

// This file holds the all-cells transform: full-profile synthesis through
// the harmonic (Jacobi–Anger) expansion for both profile kinds, extending
// harmonic.go's argmax-only Q route to whole profiles and to KindR.
//
// Q is immediate: the phasor sum S(φ) is the bandlimited trigonometric
// polynomial harmonic.go already folds, so a full Q profile is one
// O(snaps·H) fold plus an O(cells·H) synthesis.
//
// R is not bandlimited — the Gaussian residual weights
// w_i(φ) = N(wrap(res_i(φ) − μ(φ)); σ_w) are only piecewise smooth in φ, so
// no usable harmonic expansion of R itself exists (DESIGN.md §13 works the
// rejected expansions: the kernel's own Fourier series needs ~20 harmonics
// and each circular moment M_q another q·2z + 20, ~1300 coefficient pairs
// per cell — more flops than the dense scan it would replace). What *is*
// bandlimited is everything the weights depend on:
//
//	res_i(φ) = wrap(ψ_i(φ) − refAper(φ)),  ψ_i(φ) = ρ_i + z_i·cos(φ−a_i)·cos γ,
//	μ(φ)     = arg Σ_i e^{j·res_i(φ)} = arg( e^{−j·refAper(φ)} · S(φ) ),
//
// so the two-pass structure synthesizes pass one and only *evaluates* pass
// two. Per cell: (1) read the complex S(φ_k) off the harmonic coefficients
// (O(H), no trig), rotate by the closed-form reference aperture, and take
// atan2 for μ̂; (2) run the weighting pass over the snapshot terms with the
// phase ψ_i linear in (cos φ_k, sin φ_k) — one fused wrap against the
// combined offset refAper+μ̂, one inlined FastExpNegCore for the Gaussian,
// one wrapped-range phasor kernel (wrappedSincos, no range reduction), and
// an early skip when the Gaussian argument is past the synthesis flush
// cutoff (rFlushX). That drops every per-cell
// math.Sincos/math.Exp/math.Mod of the dense R scan; the remaining pass-two
// arithmetic is a short branch-light multiply-add chain over the SoA term
// slices.
//
// Exactness: the synthesized values carry bounded error (rSlack below), so
// argmax routes use the established shortlist-then-exact-rescore guarantee
// from harmonic.go — collect every cell within 2·rSlack of the synthesized
// maximum, rescore those few with the dense per-cell formula — making the
// returned peak bit-identical to the dense scan's. Full-profile routes
// (Profile2DIntoSynth/Profile3DSynth) document the value slack instead.

// rSlack bounds |synthesized − dense| per cell for the two-pass R synthesis.
// Budget: wrapped-range phasors ≤ mean(w)·1.5·wrappedSincosMaxErr ≈ 7e-9,
// FastExpNeg weights ≤ wNorm·FastExpNegMaxErr ≈ 2.2e-8, the rFlushX weight
// tail ≤ wNorm·e^(−24) ≈ 1e-8 even at extreme user σ, μ̂ error ≤
// (synthesis 1e-12 / muGuardFrac)·max|∂R/∂μ| ≈ 1e-7 (guarded below), wrap
// and association rounding ≲1e-13 — about 2e-7 in all. 2.5e-6 keeps more
// than 10× margin over that sum; the randomized slack test pins the
// measured error at a fraction of it.
const rSlack = 2.5e-6

// ProfileSlackQ and ProfileSlackR are the exported per-cell value slacks of
// the profile synthesis (Profile2DIntoSynth / Profile3DSynth) relative to
// the exact dense profile — the numbers the API contract and the bench
// preflight check against.
const (
	ProfileSlackQ = harmonicSlack
	ProfileSlackR = rSlack
)

// wrappedSincos computes (sin d, cos d) for a residual already wrapped to
// |d| ≤ π (+rounding), taking the precomputed d² so the weighting pass
// shares it with the Gaussian argument. Unlike a general sincos there is no
// range reduction and no quadrant switch — the switch's data-dependent
// branch mispredicts on essentially every term of the weighting pass, where
// residuals hop across quadrants cell to cell — just two polynomial chains
// fit for the full wrapped range. The coefficients are least-squares fits
// over Chebyshev-distributed nodes on [−π, π] (near-minimax): unlike the
// Taylor series, whose error piles up at the wrap boundary, the fit spreads
// the error across the range, which is why degree 13 (sin) and 14 (cos)
// beat the degree-17/18 Taylor chains by more than an order of magnitude
// while costing four fewer multiply-adds. TestWrappedSincos pins the ≤
// wrappedSincosMaxErr bound on the full range; the rSlack budget consumes
// it as the phasor term.
func wrappedSincos(d, d2 float64) (sin, cos float64) {
	sin = d * (sinC1 + d2*(sinC3+d2*(sinC5+d2*(sinC7+d2*(sinC9+d2*(sinC11+d2*sinC13))))))
	cos = cosC0 + d2*(cosC2+d2*(cosC4+d2*(cosC6+d2*(cosC8+d2*(cosC10+d2*(cosC12+d2*cosC14))))))
	return sin, cos
}

// wrappedSincosMaxErr bounds |wrappedSincos − math.Sincos| on |d| ≤ π: the
// fits scan at ≤1.5e-9 over two million points; 2e-9 adds Horner-rounding
// margin.
const wrappedSincosMaxErr = 2e-9

const (
	sinC1  = 0.999999996377795
	sinC3  = -0.16666665080850687
	sinC5  = 0.008333314278752557
	sinC7  = -0.00019840286404354516
	sinC9  = 2.753161674539678e-06
	sinC11 = -2.4694177257260836e-08
	sinC13 = 1.3504316538636013e-10

	cosC0  = 0.9999999986162815
	cosC2  = -0.49999998665055884
	cosC4  = 0.041666645056016825
	cosC6  = -0.0013888754429391766
	cosC8  = 2.4797484198345088e-05
	cosC10 = -2.749006087067763e-07
	cosC12 = 2.0279063724017644e-09
	cosC14 = -8.795317299676032e-12
)

// coarseWrappedSincos is the shortlist-grade sibling of wrappedSincos:
// degree-9 sin and degree-10 cos fits over the same Chebyshev-node scheme,
// four fewer multiply-adds per call at ≤ coarseSincosMaxErr. Only the
// argmax route uses it — the coarse synthesized values feed a shortlist
// whose window is widened by rCoarseRel·wNorm, and the exact rescore that
// follows erases the kernel error from the returned peak entirely. Profile
// routes, whose values are the product, keep the accurate kernel.
func coarseWrappedSincos(d, d2 float64) (sin, cos float64) {
	sin = d * (sinE1 + d2*(sinE3+d2*(sinE5+d2*(sinE7+d2*sinE9))))
	cos = cosE0 + d2*(cosE2+d2*(cosE4+d2*(cosE6+d2*(cosE8+d2*cosE10))))
	return sin, cos
}

// coarseSincosMaxErr bounds both components of coarseWrappedSincos against
// math.Sincos on |d| ≤ π (sin scans at ≤6e-6, cos at ≤8e-7).
const coarseSincosMaxErr = 8e-6

const (
	sinE1 = 0.999979115860923
	sinE3 = -0.16662401693199214
	sinE5 = 0.008308850585528799
	sinE7 = -0.00019263180002474788
	sinE9 = 2.1470546873814776e-06

	cosE0  = 0.9999992107375251
	cosE2  = -0.49999421317501624
	cosE4  = 0.04165977764482001
	cosE6  = -0.0013858789476276247
	cosE8  = 2.42029363618941e-05
	cosE10 = -2.1972943922323797e-07
)

// rCoarseRel is the extra per-cell value error of the coarse-kernel
// weighting pass, relative to wNorm (synthesized R values and their errors
// both scale with wNorm, so the bound is naturally relative): exp ≤
// FastExpNegCoarseMaxErr·wNorm ≈ 2e-5·wNorm, phasor ≤
// coarseSincosMaxErr·wNorm ≈ 8e-6·wNorm — 4e-5 covers the sum with margin.
// Argmax shortlist windows widen by 2·rCoarseRel·wNorm so the dense argmax
// cell always survives the coarse pass into the exact rescore.
const rCoarseRel = 4e-5

// rFlushX is the synthesis weighting pass's Gaussian flush cutoff, much
// tighter than mathx.FastExpNegCutoff: a term with x = d²/(2σ_w²) ≥ 24
// carries weight ≤ wNorm·e^(−24) ≈ 1e-8 even at extreme user σ (robust mode
// floors σ_w at modelResidualSigma; literal mode would need σ < 1e-3 to
// push wNorm past ~300) — invisible next to rSlack, so the exp, the phasor,
// and the accumulate are all skipped. At the default σ this skips ~60% of
// the terms in profile valleys versus ~47% at the 42.0 cutoff. The dense
// comparator never flushes; the skipped tail is part of the rSlack budget.
// Aliasing mathx's coarse cutoff also makes it the domain guard for the
// coarse loop's table-backed FastExpNegCoarseCore — the two constants must
// not drift apart, so they are one constant.
const rFlushX = mathx.FastExpNegCoarseCutoff

// muGuardFrac is the |S(φ)|/n floor below which the synthesized circular
// mean μ̂ is not trusted: Δμ̂ scales as synthErr/|S|, so cells where the
// residual phasors nearly cancel (no coherence at all — profile valleys)
// get the dense per-cell evaluation instead. On real profiles this triggers
// rarely; it exists so the rSlack bound needs no assumption about |S|.
const muGuardFrac = 1e-4

// synthesizeComplex materializes the normalized complex phasor sum
// S(φ_k)/n at every cell from the accumulated coefficients — the complex
// counterpart of synthesize, kept separate so the magnitude-only Q path
// pays nothing for the split outputs. Each iteration advances two cells at
// once — cell k from the front half and cell half+k from the back half: the
// two Chebyshev recurrence chains are independent, which is what lets the
// multiply-add stream saturate the FMA pipes instead of serializing on one
// chain's 2-multiply dependency. The halves split (rather than an even/odd
// interleave) keeps both loops unit-stride, which is the form the compiler's
// prove pass can fully bounds-check-eliminate (make vet-strict verifies);
// cell order does not affect the result because every cell's recurrence is
// seeded only from its own trig entry.
func (h *harmonicCoeffs) synthesizeComplex(outRe, outIm, sinPhi, cosPhi []float64) {
	inv := 1 / float64(h.n)
	maxM := h.maxM
	aRe := h.aRe[:maxM+1]
	aIm := h.aIm[:maxM+1]
	bRe := h.bRe[:maxM+1]
	bIm := h.bIm[:maxM+1]
	if len(aRe) == 0 { // never true (maxM ≥ 0); hands prove the aRe[0] fact
		return
	}
	re0, im0 := aRe[0], aIm[0]
	n := len(outRe)
	outIm = outIm[:n]
	sinPhi = sinPhi[:n]
	cosPhi = cosPhi[:n]
	half := n / 2
	cpA, spA := cosPhi[:half], sinPhi[:half]
	orA, oiA := outRe[:half], outIm[:half]
	cpB, spB := cosPhi[half:half+half], sinPhi[half:half+half]
	orB, oiB := outRe[half:half+half], outIm[half:half+half]
	for k := 0; k < half; k++ {
		c1a, s1a := cpA[k], spA[k]
		c1b, s1b := cpB[k], spB[k]
		reA, imA := re0, im0
		reB, imB := re0, im0
		cPrevA, sPrevA := 1.0, 0.0
		cPrevB, sPrevB := 1.0, 0.0
		cCurA, sCurA := c1a, s1a
		cCurB, sCurB := c1b, s1b
		for m := 1; m < len(aRe); m++ {
			am, aim := aRe[m], aIm[m]
			bm, bim := bRe[m], bIm[m]
			reA += 2 * (am*cCurA + bm*sCurA)
			imA += 2 * (aim*cCurA + bim*sCurA)
			reB += 2 * (am*cCurB + bm*sCurB)
			imB += 2 * (aim*cCurB + bim*sCurB)
			cCurA, cPrevA = 2*c1a*cCurA-cPrevA, cCurA
			sCurA, sPrevA = 2*c1a*sCurA-sPrevA, sCurA
			cCurB, cPrevB = 2*c1b*cCurB-cPrevB, cCurB
			sCurB, sPrevB = 2*c1b*sCurB-sPrevB, sCurB
		}
		orA[k], oiA[k] = reA*inv, imA*inv
		orB[k], oiB[k] = reB*inv, imB*inv
	}
	if k := half + half; k < n { // odd n leaves exactly one tail cell
		c1, s1 := cosPhi[k], sinPhi[k]
		re, im := re0, im0
		cPrev, sPrev := 1.0, 0.0
		cCur, sCur := c1, s1
		for m := 1; m < len(aRe); m++ {
			re += 2 * (aRe[m]*cCur + bRe[m]*sCur)
			im += 2 * (aIm[m]*cCur + bIm[m]*sCur)
			cCur, cPrev = 2*c1*cCur-cPrev, cCur
			sCur, sPrev = 2*c1*sCur-sPrev, sCur
		}
		outRe[k], outIm[k] = re*inv, im*inv
	}
}

// synthRowR computes the R profile for the candidate cells whose trig sits
// in sinPhi/cosPhi, from the harmonic coefficients in hc (folded over
// exactly these terms at this cos γ) plus one tight weighting pass per
// cell. With coarse false, values land within rSlack of the dense per-cell
// formula; with coarse true the weighting pass swaps in the shortlist-grade
// kernels (FastExpNegCoarseCore, coarseWrappedSincos) and the bound loosens
// by rCoarseRel·wNorm — only argmax routes may pass coarse, and they widen
// their shortlist windows to match. Cells whose residual phasor sum falls
// under muGuardFrac are evaluated densely instead (see the constant). sc
// supplies the working buffers — residuals/apertures are repurposed as the
// per-term phase-coefficient arrays, so the rare guard fallback runs on a
// second pooled Scratch.
func (e *Evaluator) synthRowR(terms termSlices, hc *harmonicCoeffs, sc *Scratch, cg float64, sinPhi, cosPhi, out []float64, coarse bool) {
	n := len(out)
	if terms.n() == 0 || n == 0 {
		return
	}
	sc.ensureRow(n)
	qRe := sc.sumRe[:n]
	qIm := sc.sumIm[:n]
	hc.synthesizeComplex(qRe, qIm, sinPhi[:n], cosPhi[:n])
	e.weightRowR(terms, sc, cg, sinPhi, cosPhi, qRe, qIm, out, coarse, muGuardFrac)
}

// weightRowR is synthRowR's per-cell pass: given the normalized pass-one
// phasor sums qRe/qIm (from exact Chebyshev synthesis or the NUFFT
// spreader), recover the robust mean per cell and run the tight weighting
// loop. muGuard is the |Ŝ|/n floor below which the cell is evaluated
// densely instead — muGuardFrac for exact-synthesis sums, nufftMuGuard for
// spread sums whose error is ~1e−7 rather than ~1e−12. Split out so the
// NUFFT route replays the identical weighting over its spread sums.
func (e *Evaluator) weightRowR(terms termSlices, sc *Scratch, cg float64, sinPhi, cosPhi, qRe, qIm, out []float64, coarse bool, muGuard float64) {
	m := terms.n()
	n := len(out)
	if m == 0 || n == 0 {
		return
	}
	rho := terms.relPhase[:m]
	cosA := terms.cosA[:m]
	sinA := terms.sinA[:m]
	scale := terms.scale[:m]
	// ψ_i(φ) = ρ_i + pcg_i·cos φ + psg_i·sin φ, and the reference aperture is
	// the i = 0 entry of the same linearization (stride keeps index 0, so a
	// subset's reference snapshot is the full set's).
	pcg := sc.residuals[:m]
	psg := sc.apertures[:m]
	for i := 0; i < m; i++ {
		pcg[i] = scale[i] * cosA[i] * cg
		psg[i] = scale[i] * sinA[i] * cg
	}
	sinPhi = sinPhi[:n]
	cosPhi = cosPhi[:n]
	qRe = qRe[:n]
	qIm = qIm[:n]
	pc0, ps0 := pcg[0], psg[0]
	invN := 1 / float64(m)
	wNorm, wInv2Sig := e.wNorm, e.wInv2Sig
	robust := !e.literalRef
	var fb *Scratch // lazily acquired for guard-cell dense fallback
	out = out[:n]
	for k := 0; k < n; k++ {
		c, s := cosPhi[k], sinPhi[k]
		refA := pc0*c + ps0*s
		off := refA
		if robust {
			re, im := qRe[k], qIm[k]
			if re*re+im*im < muGuard*muGuard {
				if fb == nil {
					fb = e.getScratch()
				}
				out[k] = e.evalRExact(terms, fb, s, c, cg)
				continue
			}
			// μ̂ = arg(e^{−j·refA}·Ŝ); fold it into the wrap offset so pass
			// two pays a single wrap per term.
			sv, cv := math.Sincos(refA)
			off = refA + math.Atan2(im*cv-re*sv, re*cv+im*sv)
		}
		var sumRe, sumIm float64
		if coarse {
			// Same loop, shortlist-grade kernels: seven fewer multiply-adds
			// per term, error absorbed by the caller's widened window.
			for i := 0; i < m; i++ {
				psi := rho[i] + pcg[i]*c + psg[i]*s
				d := wrapToPiFast(psi - off)
				d2 := d * d
				x := d2 * wInv2Sig
				if x < rFlushX {
					w := wNorm * mathx.FastExpNegCoarseCore(x)
					si, ci := coarseWrappedSincos(d, d2)
					sumRe += w * ci
					sumIm += w * si
				}
			}
		} else {
			for i := 0; i < m; i++ {
				psi := rho[i] + pcg[i]*c + psg[i]*s
				d := wrapToPiFast(psi - off)
				d2 := d * d
				x := d2 * wInv2Sig
				if x < rFlushX {
					w := wNorm * mathx.FastExpNegCore(x)
					// e^{jd} stands in for e^{jψ}: d differs from ψ by the
					// per-cell constant off (mod 2π), and the magnitude taken
					// below is invariant under that rotation — which is what
					// lets the phasor come from the branch-free wrapped-range
					// kernel (sharing d²) instead of a range-reduced sincos
					// of the unbounded ψ.
					si, ci := wrappedSincos(d, d2)
					sumRe += w * ci
					sumIm += w * si
				}
			}
		}
		out[k] = math.Sqrt(sumRe*sumRe+sumIm*sumIm) * invN
	}
	if fb != nil {
		e.putScratch(fb)
	}
}

// inv2Pi is 1/2π for the rounded phase wrap below.
const inv2Pi = 1 / mathx.TwoPi

// wrapToPiFast maps a phase difference into [-π, π] by subtracting the
// rounded multiple of 2π — one multiply, an intrinsic floor, and one
// fused subtract, against math.Mod inside mathx.WrapToPi. The subtracted
// multiple k carries |k|·ulp(2π) ≲ 1e-14 rad of error for the |x| ≤
// π + 2·4πr/λ arguments spectrum residuals produce, far inside the
// weighting pass's rExactRel budget; the boundary case that lands on −π
// instead of the exact wrap's (−π, π] is harmless because every consumer
// (sincos, the squared Gaussian distance) is continuous through ±π.
// Pathological magnitudes fall back to the exact wrap before the k·2π
// cancellation could lose precision.
func wrapToPiFast(x float64) float64 {
	if x > 1e6 || x < -1e6 {
		return mathx.WrapToPi(x)
	}
	if x > math.Pi || x < -math.Pi {
		x -= math.Floor(x*inv2Pi+0.5) * mathx.TwoPi
	}
	return x
}

// harmonicArgmaxR2D is the coarseArgmax2D drop-in for KindR on the uniform
// azimuth grid (γ = 0): fold the Q coefficients once, synthesize the whole R
// row through the two-pass kernel with the shortlist-grade coarse kernels,
// then exact-rescore every cell within 2·(rSlack + rCoarseRel·wNorm) of the
// synthesized maximum — the window is wide enough that the dense argmax
// cell always shortlists despite the coarse kernels' error. The rescore
// evaluates exactly what the dense scan evaluates at those cells (ascending
// index, strict >), so the returned index equals the dense scan's argmax —
// TestRHarmonicArgmax pins this.
func (e *Evaluator) harmonicArgmaxR2D(terms termSlices, n int, step float64) int {
	hs := harmPool.Get().(*harmonicScratch)
	foldTermsHarmonic(hs, terms, 1)
	vals := hs.values(n)
	sc := e.getScratch()
	e.fillUniformTrig(sc, 0, n, step)
	e.synthRowR(terms, &hs.coeffs, sc, 1, sc.sinPhi[:n], sc.cosPhi[:n], vals, true)
	e.putScratch(sc)
	maxV := maxOf(vals)
	window := 2 * (rSlack + rCoarseRel*e.wNorm)
	cand := hs.cand[:0]
	for k, v := range vals {
		if v >= maxV-window {
			cand = append(cand, k)
		}
	}
	hs.cand = cand
	idx := e.rescoreUniform(terms, cand, step)
	harmPool.Put(hs)
	return idx
}

// polarMirrorTol is how far from zero γ_r + γ_{nPol−1−r} may sit for
// harmonicArgmax3D to serve both polar rows from one synthesis. Only cos γ
// enters the profile, so a symmetric lattice's mirror rows differ by
// |Δcos γ| ≤ polarMirrorTol + 2 ulp; the default grids land at ≤ 4.4e-16.
const polarMirrorTol = 1e-14

// harmonicArgmax3D is coarseArgmax3D's route for both kinds over the
// row-major nAz × nPol grid (φ_a = a·azStep, γ_r = −π/2 + r·polStep). Each
// polar row is the 2D problem with the aperture scaled by cos γ_r: fold the
// harmonic coefficients at that cos γ, synthesize the row (Q magnitudes, or
// the two-pass R kernel with the coarse kernels), and shortlist every cell
// within the kind's window of the running synthesized maximum — 2·
// harmonicSlack for Q, 2·(rSlack + rCoarseRel·wNorm) for R, as in 2D. When
// the lattice is symmetric (γ_r + γ_m within polarMirrorTol, m = nPol−1−r)
// row m reuses row r's synthesis: both rows score the same cos γ up to a
// few ulp, which moves every aperture phase by ≲ z·1e-14 rad — far inside
// either slack. The exception is an R cell under the μ̂ guard, whose robust
// mean is ill-conditioned; row m re-evaluates those cells densely at its
// own γ. The shortlist is then exact-rescored with the dense per-cell
// arithmetic (evalGridCell) under the lowest-index tie rule, so the
// returned cell is the dense scan's bit for bit. Rows run serially, like
// the 2D routes: the per-tag callers supply the parallelism, and no buffer
// spans the grid.
func (e *Evaluator) harmonicArgmax3D(terms termSlices, nAz, nPol int, azStep, polStep float64) int {
	hs := harmPool.Get().(*harmonicScratch)
	vals := hs.values(nAz)
	sc, one := e.getScratch(), e.getScratch()
	one.ensureRow(1)
	e.fillUniformTrig(sc, 0, nAz, azStep)
	sinPhi, cosPhi := sc.sinPhi[:nAz], sc.cosPhi[:nAz]
	window := 2 * harmonicSlack
	if e.kind == KindR {
		window = 2 * (rSlack + rCoarseRel*e.wNorm)
	}
	list, maxV := hs.shortlist[:0], math.Inf(-1)
	for r := 0; r < nPol; r++ {
		m := nPol - 1 - r
		gamma := -math.Pi/2 + float64(r)*polStep
		gammaM := -math.Pi/2 + float64(m)*polStep
		mirror := m != r && math.Abs(gamma+gammaM) <= polarMirrorTol
		if mirror && m < r {
			continue // served with row m
		}
		cg := math.Cos(gamma)
		foldTermsHarmonic(hs, terms, cg)
		if e.kind == KindR {
			e.synthRowR(terms, &hs.coeffs, sc, cg, sinPhi, cosPhi, vals, true)
		} else {
			hs.coeffs.synthesize(vals, sinPhi, cosPhi)
		}
		list, maxV = shortlistRow(list, vals, r*nAz, maxV, window)
		if !mirror {
			continue
		}
		if e.kind == KindR && !e.literalRef {
			// synthRowR leaves the row's normalized Ŝ in sumRe/sumIm.
			qRe, qIm := sc.sumRe[:nAz], sc.sumIm[:nAz]
			for k, re := range qRe {
				if im := qIm[k]; re*re+im*im < muGuardFrac*muGuardFrac {
					vals[k] = e.evalGridCell(terms, one, sinPhi[k], cosPhi[k], gammaM)
				}
			}
		}
		list, maxV = shortlistRow(list, vals, m*nAz, maxV, window)
	}
	best, bestV := 0, math.Inf(-1)
	for _, c := range list {
		a, r := uint(c.idx)%uint(len(sinPhi)), c.idx/nAz
		v := e.evalGridCell(terms, one, sinPhi[a], cosPhi[a], -math.Pi/2+float64(r)*polStep)
		if v > bestV || v == bestV && c.idx < best { // lowest-index tie rule
			best, bestV = c.idx, v
		}
	}
	e.putScratch(one)
	e.putScratch(sc)
	hs.shortlist = list
	harmPool.Put(hs)
	return best
}

// evalGridCell scores one cell of the 3D coarse grid through the dense
// scan's own row kernel, from the row trig table's entry (sinPhi, cosPhi),
// so the value carries the very bits denseArgmax3D assigns that cell. one
// is a Scratch whose rows hold at least one cell.
func (e *Evaluator) evalGridCell(terms termSlices, one *Scratch, sinPhi, cosPhi, gamma float64) float64 {
	s, c, row := one.sinPhi[:1], one.cosPhi[:1], one.row[:1]
	s[0], c[0] = sinPhi, cosPhi
	e.evalRow(terms, one, gamma, 1, row)
	return row[0]
}

// shortlistRow appends the cells of one synthesized row (grid indices
// base+k) that sit within window of the running maximum maxV, first
// dropping earlier entries the row's maximum pushes out of the window. The
// list therefore ends as exactly the cells within window of the grid's
// synthesized maximum, in no particular order.
func shortlistRow(list []maxEntry, vals []float64, base int, maxV, window float64) ([]maxEntry, float64) {
	if rowMax := maxOf(vals); rowMax > maxV {
		maxV = rowMax
		kept := list[:0]
		for _, c := range list {
			if c.val >= maxV-window {
				kept = append(kept, c)
			}
		}
		list = kept
	}
	for k, v := range vals {
		if v >= maxV-window {
			list = append(list, maxEntry{idx: base + k, val: v})
		}
	}
	return list, maxV
}

// synthRow writes the synthesized profile at cos γ = cg into out for the
// cells whose exact trig sits in sinPhi/cosPhi, from hc folded over the
// full term set at that cg: Q magnitudes, or the two-pass R kernel with the
// accurate weighting kernels. Values land within harmonicSlack (Q) or
// rSlack (R) of EvalAt — the contract the Profile*Synth routes document —
// and within the tighter refineSlack, which the refinement shortlists rely
// on.
func (e *Evaluator) synthRow(hc *harmonicCoeffs, sc *Scratch, cg float64, sinPhi, cosPhi, out []float64) {
	if e.kind == KindR {
		e.synthRowR(e.terms, hc, sc, cg, sinPhi, cosPhi, out, false)
		return
	}
	hc.synthesize(out, sinPhi, cosPhi)
}

// Profile2DSynth is Profile2D through the all-cells transform; see
// Profile2DIntoSynth.
func (e *Evaluator) Profile2DSynth(angles []float64) Profile {
	var prof Profile
	e.Profile2DIntoSynth(&prof, angles)
	return prof
}

// Profile2DIntoSynth is Profile2DInto through the all-cells transform: the
// profile is produced by one O(snaps·H) coefficient fold plus an O(cells·H)
// synthesis (Q), or the fold plus the two-pass weighting kernel (R), instead
// of the dense O(cells·snaps) scan.
//
// Contract: synthesized values approximate the *exact* dense profile within
// harmonicSlack (Q) / rSlack (R) per cell — callers needing
// Profile2DInto's bit-for-bit guarantee keep calling Profile2DInto. Angles
// may be arbitrary; uniformity is not required.
func (e *Evaluator) Profile2DIntoSynth(prof *Profile, angles []float64) {
	searchCounters.profileSynth.Add(1)
	prof.Angles = append(prof.Angles[:0], angles...)
	if cap(prof.Power) >= len(angles) {
		prof.Power = prof.Power[:len(angles)]
	} else {
		prof.Power = make([]float64, len(angles))
	}
	n := len(prof.Angles)
	hs := harmPool.Get().(*harmonicScratch)
	foldTermsHarmonic(hs, e.terms, 1)
	if e.kind != KindR && n >= nufftMinCells {
		// Large Q grids go through the gridded spreader: no per-cell trig
		// at all, and the value error stays inside the same harmonicSlack
		// contract (nufftSlackQ == harmonicSlack). The R pass keeps the
		// exact synthesis — its robust mean amplifies pass-one error by
		// 1/|Ŝ|, which would break the documented rSlack value bound.
		searchCounters.nufftProfile.Add(1)
		nufftSynthQ(&hs.coeffs, prof.Angles, prof.Power)
		harmPool.Put(hs)
		return
	}
	sc := e.getScratch()
	fillAngleTrig(sc, prof.Angles)
	e.synthRow(&hs.coeffs, sc, 1, sc.sinPhi[:n], sc.cosPhi[:n], prof.Power)
	e.putScratch(sc)
	harmPool.Put(hs)
}

// Profile3DSynth is Profile3D through the same synthesis: each polar row
// refolds the coefficients at its cos γ (O(snaps·H) per row) and
// synthesizes the row's cells, so the whole grid costs
// O(rows·(snaps+cells)·H) instead of the dense O(rows·cells·snaps). The
// same value contract as Profile2DIntoSynth applies per cell.
func (e *Evaluator) Profile3DSynth(azimuths, polars []float64) Profile3D {
	searchCounters.profileSynth.Add(1)
	prof := newProfile3D(azimuths, polars)
	n := len(prof.Azimuths)
	hs := harmPool.Get().(*harmonicScratch)
	// Large Q rows spread instead of running the per-cell recurrences; the
	// azimuth set is shared by every row, so the spreader's target wrap and
	// exponentials re-run per row but its grid synthesis replaces the
	// O(cells·H) row synthesis — and no per-cell trig table is built at
	// all. R rows keep exact synthesis (see Profile2DIntoSynth on the μ̂
	// amplification).
	spreadQ := e.kind != KindR && n >= nufftMinCells
	if spreadQ {
		searchCounters.nufftProfile.Add(1)
	}
	sc := e.getScratch()
	var sinPhi, cosPhi []float64
	if !spreadQ {
		fillAngleTrig(sc, prof.Azimuths)
		sinPhi = sc.sinPhi[:n]
		cosPhi = sc.cosPhi[:n]
	}
	rows := prof.Power
	pols := prof.Polars[:len(rows)]
	for i := range rows {
		cg := math.Cos(pols[i])
		foldTermsHarmonic(hs, e.terms, cg)
		if spreadQ {
			nufftSynthQ(&hs.coeffs, prof.Azimuths, rows[i])
		} else {
			e.synthRow(&hs.coeffs, sc, cg, sinPhi, cosPhi, rows[i])
		}
	}
	e.putScratch(sc)
	harmPool.Put(hs)
	return prof
}
