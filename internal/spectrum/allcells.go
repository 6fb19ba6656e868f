package spectrum

import (
	"cmp"
	"math"
	"slices"

	"github.com/tagspin/tagspin/internal/mathx"
)

// This file holds the all-cells transform: synthesis of every candidate
// cell through the harmonic (Jacobi–Anger) expansion for both profile
// kinds, extending harmonic.go's Q synthesis to KindR. Both peak searches
// run one coarse route (harmonicArgmax3D) and one refinement (refine3D),
// keyed only by grid shape: the 3D search scans the polar rows over
// [−π/2, π/2], the 2D search the single row γ = 0. Both score their cells
// through it.
//
// Q is immediate: the phasor sum S(φ) is the bandlimited trigonometric
// polynomial harmonic.go already folds, so a row of Q cells is one
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
// the coarse argmax uses the established shortlist-then-exact-rescore guarantee
// from harmonic.go — collect every cell within 2·rSlack of the synthesized
// maximum, rescore those few with the dense per-cell formula — making the
// returned peak bit-identical to the dense scan's.

// rSlack bounds |synthesized − dense| per cell for the two-pass R synthesis.
// Budget: wrapped-range phasors ≤ mean(w)·1.5·wrappedSincosMaxErr ≈ 7e-9,
// FastExpNeg weights ≤ wNorm·FastExpNegMaxErr ≈ 2.2e-8, the rFlushX weight
// tail ≤ wNorm·e^(−24) ≈ 1e-8 even at extreme user σ, μ̂ error ≤
// (synthesis 1e-12 / muGuardFrac)·max|∂R/∂μ| ≈ 1e-7 (guarded below), wrap
// and association rounding ≲1e-13 — about 2e-7 in all. 2.5e-6 keeps more
// than 10× margin over that sum; the randomized slack test pins the
// measured error at a fraction of it.
const rSlack = 2.5e-6

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
// follows erases the kernel error from the returned peak entirely.
// Refinement, whose shortlist window is the tighter refineSlack, keeps the
// accurate kernel.
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
// by rCoarseRel·wNorm — only the coarse argmax may pass coarse, and it
// widens its shortlist window to match. Cells whose residual phasor sum falls
// under muGuardFrac are evaluated densely instead (see the constant). sc
// supplies the working buffers — residuals/apertures are repurposed as the
// per-term phase-coefficient arrays, so the rare guard fallback runs on a
// second pooled Scratch. cut2 is the coarse argmax's prune cut (rPruneCut):
// cells whose |Ŝ|²/n² falls under it are written −Inf unweighted;
// refinement passes 0, which prunes nothing.
func (e *Evaluator) synthRowR(terms termSlices, hc *harmonicCoeffs, sc *Scratch, cg float64, sinPhi, cosPhi, out []float64, coarse bool, cut2 float64) {
	n := len(out)
	if terms.n() == 0 || n == 0 {
		return
	}
	sc.ensureRow(n)
	qRe := sc.sumRe[:n]
	qIm := sc.sumIm[:n]
	hc.synthesizeComplex(qRe, qIm, sinPhi[:n], cosPhi[:n])
	e.weightRowR(terms, sc, cg, sinPhi, cosPhi, qRe, qIm, out, coarse, cut2)
}

// weightRowR is synthRowR's per-cell pass: given the normalized pass-one
// phasor sums qRe/qIm, recover the robust mean per cell and run the tight
// weighting loop. Cells under the muGuardFrac floor are evaluated densely
// instead. A cell whose |Ŝ|²/n² sits under cut2 is proven unable to win
// (rPruneCut) and is written −Inf with neither its weighting loop nor its
// guard fallback run. Split out so a one-row coarse grid can weight the Ŝ
// its prune incumbent sweep already synthesized.
func (e *Evaluator) weightRowR(terms termSlices, sc *Scratch, cg float64, sinPhi, cosPhi, qRe, qIm, out []float64, coarse bool, cut2 float64) {
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
		re, im := qRe[k], qIm[k]
		mag2 := re*re + im*im
		if mag2 < cut2 {
			out[k] = math.Inf(-1)
			continue
		}
		c, s := cosPhi[k], sinPhi[k]
		refA := pc0*c + ps0*s
		off := refA
		if robust {
			if mag2 < muGuardFrac*muGuardFrac {
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
		putScratch(fb)
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

// Coarse R pruning. The R coarse argmax holds, before its weighting pass,
// the synthesized pass-one magnitude q̂ = |Ŝ(φ)|/n of every cell, and q̂
// bounds the cell's exact value from above (DESIGN.md §14 has the
// derivation). With d_i = wrap(res_i − μ) the weighted residuals,
// κ = e^{−2/σ_w²}, and q = |S|/n the exact magnitude,
//
//	R ≤ Σ_i w_i/n = wNorm·mean e^{−d_i²/2σ_w²}        (|Σ w_i e^{jψ_i}| ≤ Σ w_i)
//	  ≤ wNorm·mean e^{−(1−cos d_i)/σ_w²}               (d² ≥ 2(1 − cos d))
//	  ≤ wNorm·(κ + (1−κ)(1 + mean cos d_i)/2)          (convex in cos d: chord on [−1, 1])
//	  ≤ wNorm·(κ + (1−κ)(1 + q)/2)                     (mean cos(res_i − μ) ≤ |S|/n for any μ)
//
// in robust mode (μ the circular mean) and literal mode (μ = 0) alike. So
// once the route knows one exact value lo — an incumbent every cell that can
// still win must reach — any cell whose bound sits below lo is out, and
// its weighting loop never runs. The incumbent is the exact value, in the
// rescore's own arithmetic, of the cell with the largest synthesized |Ŝ|:
// the dense argmax cell scores at least lo, so it and every cell tied with
// it survive the cut, and the shortlist-then-rescore argument goes through
// unchanged on the survivors. Pruned cells are written −Inf, which no
// shortlist window reaches.

// rPruneMargin is the relative rounding margin on the incumbent: the exact
// values the rescore computes sit within ~1e-14 (relative) of the
// real-valued R the bound speaks about, and 1e-9 covers that with room.
const rPruneMargin = 1e-9

// rPruneCut inverts the bound B(q) = wNorm·(1 − (1−κ)(1−q)/2): it returns
// the |Ŝ|²/n² below which a cell's exact R value provably falls under lo,
// given that the synthesized magnitude strays at most slack from the exact
// one. lo is shaved by rPruneMargin first. It returns 0 — prune nothing —
// when the cut would fall at or below zero, and when σ_w is so wide
// (1 − κ < 1e-6, σ_w past ~2000 rad) that the bound is flat and the
// inversion ill-conditioned.
func (e *Evaluator) rPruneCut(lo, slack float64) float64 {
	gap := -math.Expm1(-4 * e.wInv2Sig) // 1 − κ, κ = e^{−2/σ_w²}
	if !(gap >= 1e-6) {
		return 0
	}
	q := 1 - 2*(1-lo*(1-rPruneMargin)/e.wNorm)/gap - slack
	if !(q > 0) { // also catches a NaN incumbent
		return 0
	}
	return q * q
}

// maxPhasorCell returns the largest |Ŝ|²/n² of a row of normalized
// pass-one sums qRe/qIm and that cell's index in the row — always a real
// cell, the first one when every sum vanishes (m2 = −1 for an empty row).
func maxPhasorCell(qRe, qIm []float64) (m2 float64, k int) {
	qIm = qIm[:len(qRe)]
	m2 = -1
	for i, re := range qRe {
		if m := re*re + qIm[i]*qIm[i]; m > m2 {
			m2, k = m, i
		}
	}
	return m2, k
}

// polarMirrorTol is how far from zero γ_r + γ_{nPol−1−r} may sit for
// harmonicArgmax3D to serve both polar rows from one synthesis. Only cos γ
// enters the profile, so a symmetric lattice's mirror rows differ by
// |Δcos γ| ≤ polarMirrorTol + 2 ulp; the default grids land at ≤ 4.4e-16.
const polarMirrorTol = 1e-14

// harmonicArgmax3D is the coarse argmax of both peak searches, for both
// kinds, over the row-major nAz × nPol grid (φ_a = a·azStep, γ_r = polBase +
// r·polStep): the polar rows over [−π/2, π/2] in 3D, the single row γ = 0
// in 2D (Eqn. 7/8 are Eqn. 11/12 at γ = 0). Each row is the azimuth problem
// with the aperture scaled by cos γ_r: fold the harmonic coefficients at
// that cos γ (foldRow: a single-wavelength term set folds its γ-free unit
// sums once and scales them per row, within ~1e-13 of a per-row fold),
// synthesize the row (Q magnitudes, or the two-pass R kernel with the
// coarse kernels), and shortlist every cell within the kind's window of the
// running synthesized maximum — 2·harmonicSlack for Q, 2·(rSlack +
// rCoarseRel·wNorm) for R. R first sweeps the grid for its prune incumbent
// and cut (rIncumbent3D), synthesizing each row's Ŝ at most once and
// skipping the rows whose bound already rules them out; the main pass
// weights the swept rows straight from the Ŝ the sweep kept, skips the rows
// whose every cell sits under the cut, and within the rest skips the cells
// the cut rules out. When the lattice is symmetric (γ_r + γ_m within
// polarMirrorTol, m = nPol−1−r) row m reuses row r's synthesis: both rows
// score the same cos γ up to a few ulp, which moves every aperture phase —
// and |Ŝ|, so the prune cut holds for both — by ≲ z·1e-14 rad, far inside
// either slack. The exception is an unpruned R cell under the μ̂ guard,
// whose robust mean is ill-conditioned; row m re-evaluates those cells
// densely at its own γ. The shortlist is then exact-rescored through
// evalCell from the row trig table's math.Sincos entries — the bits the
// dense scan's row kernel computes — under the lowest-index tie rule, so
// the returned cell is the dense scan's bit for bit; the order rows are
// visited in moves neither the shortlist nor the rescore. Rows run serially
// on one Scratch: the per-tag callers supply the parallelism.
func (e *Evaluator) harmonicArgmax3D(terms termSlices, nAz, nPol int, azStep, polBase, polStep float64) int {
	hs := harmPool.Get().(*harmonicScratch)
	vals := hs.values(nAz)
	sc := e.getScratch()
	sinPhi, cosPhi := hs.azimuthTrig(nAz, azStep)
	sinPhi, cosPhi = sinPhi[:nAz], cosPhi[:nAz] // the length fact the loops' proofs read
	z := terms.singleScale()
	if z > 0 {
		foldUnitSums(hs, terms)
	}
	rows := hs.polarRows(nPol, polBase, polStep)
	window := 2 * harmonicSlack
	cut2 := math.Inf(-1) // Q prunes nothing, whatever max2 holds
	if e.kind == KindR {
		window = 2 * (rSlack + rCoarseRel*e.wNorm)
		var swept int
		swept, _, cut2 = e.rIncumbent3D(hs, rows, terms, z, sc, polBase, polStep)
		rows = rows[:swept]
	}
	list, maxV := hs.shortlist[:0], math.Inf(-1)
	for i, row := range rows {
		if row.max2 < cut2 {
			continue // every cell of the row (and its mirror) is pruned
		}
		r := row.r
		cg := math.Cos(polarAngle(r, polBase, polStep))
		var qRe, qIm []float64
		if e.kind == KindR {
			qRe, qIm = hs.rowSums(i, nAz)
			e.weightRowR(terms, sc, cg, sinPhi, cosPhi, qRe, qIm, vals, true, cut2)
		} else {
			foldRow(hs, terms, z, cg)
			hs.coeffs.synthesize(vals, sinPhi, cosPhi)
		}
		list, maxV = shortlistRow(list, vals, r*nAz, maxV, window)
		m, mirror := polarMirror(r, nPol, polBase, polStep)
		if !mirror {
			continue
		}
		if e.kind == KindR && !e.literalRef {
			cgM := math.Cos(polarAngle(m, polBase, polStep))
			qRe, qIm := qRe[:nAz], qIm[:nAz]
			for k, re := range qRe {
				if m2 := re*re + qIm[k]*qIm[k]; m2 < muGuardFrac*muGuardFrac && m2 >= cut2 {
					vals[k] = e.evalCell(terms, sc, sinPhi[k], cosPhi[k], cgM)
				}
			}
		}
		list, maxV = shortlistRow(list, vals, m*nAz, maxV, window)
	}
	best, bestV := 0, math.Inf(-1)
	for _, c := range list {
		a, r := uint(c.idx)%uint(len(sinPhi)), c.idx/nAz
		v := e.evalCell(terms, sc, sinPhi[a], cosPhi[a], math.Cos(polarAngle(r, polBase, polStep)))
		if v > bestV || v == bestV && c.idx < best { // lowest-index tie rule
			best, bestV = c.idx, v
		}
	}
	putScratch(sc)
	hs.shortlist = list
	harmPool.Put(hs)
	return best
}

// polarAngle returns the coarse grid's polar angle γ_r = polBase + r·polStep
// — the expression the dense scan's row geometry evaluates.
func polarAngle(r int, polBase, polStep float64) float64 {
	return polBase + float64(r)*polStep
}

// polarMirror returns row r's mirror row m = nPol−1−r and whether the two
// may share one synthesis (γ_r + γ_m within polarMirrorTol). A one-row grid
// has no mirror.
func polarMirror(r, nPol int, polBase, polStep float64) (m int, mirror bool) {
	m = nPol - 1 - r
	return m, m != r && math.Abs(polarAngle(r, polBase, polStep)+polarAngle(m, polBase, polStep)) <= polarMirrorTol
}

// sweptRow is one polar row of harmonicArgmax3D's coarse grid: its index r
// and, for R, rIncumbent3D's bound on the row's synthesized |Ŝ|/n and,
// once synthesized, its largest |Ŝ|²/n².
type sweptRow struct {
	r     int
	bound float64
	max2  float64
}

// polarRows sets hs.rows to the polar rows harmonicArgmax3D synthesizes —
// every row but the mirrors served with a lower one — in ascending order.
func (hs *harmonicScratch) polarRows(nPol int, polBase, polStep float64) []sweptRow {
	rows := hs.rows[:0]
	for r := 0; r < nPol; r++ {
		if m, mirror := polarMirror(r, nPol, polBase, polStep); !mirror || m > r {
			rows = append(rows, sweptRow{r: r})
		}
	}
	hs.rows = rows
	return rows
}

// rowSums returns the normalized Ŝ rIncumbent3D kept for the i-th row it
// synthesized: n cells of real parts and n of imaginary parts.
func (hs *harmonicScratch) rowSums(i, n int) (qRe, qIm []float64) {
	row := hs.sums[2*i*n:]
	return row[:n], row[n : 2*n]
}

// rIncumbent3D sweeps rows — harmonicArgmax3D's polar rows, reordered in
// place — for the R prune incumbent and cut, synthesizing each row's Ŝ at
// most once and only where a cell can survive. It folds every row first
// (O(H) per row for a single-scale term set) and bounds its synthesized
// |Ŝ|/n by magBound + harmonicSlack, then synthesizes the rows in
// descending bound order into hs.sums, the i-th synthesized row in slot i
// (rowSums), recording each one's largest |Ŝ|²/n² in max2. Once the next
// bound falls below the largest |Ŝ| seen, no later row can reach it: that
// cell — the grid's largest synthesized |Ŝ|, the lowest row winning a tie,
// exactly the cell a full sweep picks — is the incumbent, evalCell scores
// it exactly on sc's residual buffers, and rPruneCut turns that into cut2.
// From there every row whose bound sits under cut2 — the rest of the order —
// is skipped unsynthesized: its synthesized maximum would be under the cut
// too, so a full sweep would have pruned it whole. hs.sinPhi/cosPhi hold
// the grid's azimuths; z and hs.unit are harmonicArgmax3D's foldRow state. It
// returns the number of rows synthesized (rows[:swept], slots 0..swept−1),
// the incumbent's grid index, and cut2.
func (e *Evaluator) rIncumbent3D(hs *harmonicScratch, rows []sweptRow, terms termSlices, z float64, sc *Scratch, polBase, polStep float64) (swept, inc int, cut2 float64) {
	n := len(hs.sinPhi)
	sinPhi, cosPhi := hs.sinPhi, hs.cosPhi[:n]
	for i := range rows {
		foldRow(hs, terms, z, math.Cos(polarAngle(rows[i].r, polBase, polStep)))
		rows[i].bound = hs.coeffs.magBound() + harmonicSlack
	}
	folded := -1 // the row hs.coeffs holds
	if len(rows) > 0 {
		folded = rows[len(rows)-1].r
	}
	slices.SortFunc(rows, func(a, b sweptRow) int {
		return cmp.Or(cmp.Compare(b.bound, a.bound), cmp.Compare(a.r, b.r))
	})
	if need := 2 * n * len(rows); cap(hs.sums) < need {
		hs.sums = make([]float64, need)
	}
	best, bestK, bestR := -1.0, 0, 0
	inc, cut2 = -1, math.Inf(-1) // until the incumbent is taken
	for i, row := range rows {
		b2 := row.bound * row.bound
		if inc < 0 && b2 < best { // no later row reaches best
			inc = bestR*n + bestK
			cut2 = e.incumbentCut(hs, terms, sc, inc, polBase, polStep)
		}
		if b2 < cut2 { // and so is every later row's
			return i, inc, cut2
		}
		if row.r != folded {
			foldRow(hs, terms, z, math.Cos(polarAngle(row.r, polBase, polStep)))
			folded = row.r
		}
		qRe, qIm := hs.rowSums(i, n)
		hs.coeffs.synthesizeComplex(qRe, qIm, sinPhi, cosPhi)
		m2, k := maxPhasorCell(qRe, qIm)
		if m2 > best || m2 == best && row.r < bestR {
			best, bestK, bestR = m2, k, row.r
		}
		rows[i].max2 = m2
	}
	if inc < 0 {
		inc = bestR*n + bestK
		cut2 = e.incumbentCut(hs, terms, sc, inc, polBase, polStep)
	}
	return len(rows), inc, cut2
}

// incumbentCut returns rPruneCut for the incumbent, grid cell idx of
// hs's azimuth rows, scored exactly by evalCell on sc's residual buffers.
func (e *Evaluator) incumbentCut(hs *harmonicScratch, terms termSlices, sc *Scratch, idx int, polBase, polStep float64) float64 {
	sinPhi := hs.sinPhi
	cosPhi := hs.cosPhi[:len(sinPhi)]
	a := uint(idx) % uint(len(sinPhi))
	lo := e.evalCell(terms, sc, sinPhi[a], cosPhi[a], math.Cos(polarAngle(idx/len(sinPhi), polBase, polStep)))
	return e.rPruneCut(lo, harmonicSlack)
}

// maxEntry is one shortlisted cell of the coarse argmax: its row-major grid
// index and synthesized value.
type maxEntry struct {
	idx int
	val float64
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
		if v >= maxV-window && v > math.Inf(-1) { // −Inf: pruned, never a winner
			list = append(list, maxEntry{idx: base + k, val: v})
		}
	}
	return list, maxV
}

// synthRow writes the synthesized profile at cos γ = cg into out for the
// cells whose exact trig sits in sinPhi/cosPhi, from hc folded over the
// full term set at that cg: Q magnitudes, or the two-pass R kernel with the
// accurate weighting kernels. Values land within harmonicSlack (Q) or
// rSlack (R) of EvalAt (TestProfile2DOptSlack, TestProfile3DOptSlack), and
// within the tighter refineSlack, which the refinement shortlists rely on.
func (e *Evaluator) synthRow(hc *harmonicCoeffs, sc *Scratch, cg float64, sinPhi, cosPhi, out []float64) {
	if e.kind == KindR {
		e.synthRowR(e.terms, hc, sc, cg, sinPhi, cosPhi, out, false, 0)
		return
	}
	hc.synthesize(out, sinPhi, cosPhi)
}
