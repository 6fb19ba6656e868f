package spectrum

import (
	"math"

	"github.com/tagspin/tagspin/internal/mathx"
)

// This file holds the batched row kernels: evaluating a whole row of
// candidate azimuths (fixed γ) against the snapshot terms in one call.
// Grid scans — Profile2D/3D, the argmax coarse passes of both FindPeak
// paths, and ExhaustivePeak2D — all funnel through evalRow.
//
// Exact mode reproduces the single-candidate arithmetic bit for bit: the
// candidate trig table is filled with math.Sincos per point, and the Q
// kernel, although loop-interchanged (snapshots outer, candidates inner),
// accumulates each candidate's phasor sum in the same snapshot order with
// the same expression shapes as evalQExact, so float rounding is
// identical. Fast mode replaces the per-snapshot sincos with
// mathx.FastSincos and fills uniform-grid tables with the rotation
// recurrence below.

// trigReseedInterval is how many rotation-recurrence steps the fast
// uniform-grid trig table takes between exact math.Sincos re-seeds. Each
// recurrence step multiplies by the unit phasor e^{iΔφ} and so compounds
// ~1 ulp of rounding per step; 64 steps keep the accumulated drift below
// ~1e-14 rad — three orders of magnitude under the FastSincos budget —
// while amortizing the seed sincos across the row.
const trigReseedInterval = 64

// fillAngleTrig fills sc.sinPhi/cosPhi with the trig of arbitrary
// candidate angles. The exact path must use math.Sincos so grid scans stay
// bit-identical to per-candidate evaluation; the fast path uses the
// bounded-error kernel (the per-candidate trig is one call amortized over
// every snapshot, so this is not the hot sincos — but keeping it fast
// avoids a second code shape).
func (e *Evaluator) fillAngleTrig(sc *Scratch, angles []float64) {
	sc.ensureRow(len(angles))
	if len(angles) >= planMinN {
		// Cache-unservable build: arbitrary angles have no uniform-step
		// plan key. Counted (like fillAngleTrigExact) so the non-uniform
		// bypass rate shows up next to the plan-cache hit rate.
		planCache.nonUniformMiss.Add(1)
	}
	if e.fastTrig {
		for k, phi := range angles {
			sc.sinPhi[k], sc.cosPhi[k] = mathx.FastSincos(phi)
		}
		return
	}
	for k, phi := range angles {
		sc.sinPhi[k], sc.cosPhi[k] = math.Sincos(phi)
	}
}

// fillUniformTrig fills sc.sinPhi/cosPhi for the uniform grid points
// φ_k = (i0+k)·step, k ∈ [0, n). Tables large enough to be worth a map
// lookup are served from the process-wide plan cache (plancache.go) —
// repeated locates at the same grid skip table construction entirely —
// and both cache paths produce exactly the bytes buildUniformTrig would,
// so results are unchanged.
func (e *Evaluator) fillUniformTrig(sc *Scratch, i0, n int, step float64) {
	sc.ensureRow(n)
	if n >= planMinN {
		planCache.fill(sc.sinPhi[:n], sc.cosPhi[:n], planKey{i0: i0, n: n, step: step, fast: e.fastTrig})
		return
	}
	buildUniformTrig(sc.sinPhi[:n], sc.cosPhi[:n], i0, step, e.fastTrig)
}

// buildUniformTrig computes sin/cos of the uniform grid points
// φ_k = (i0+k)·step into sin[:n]/cos[:n] (n = len(sin)). The angle values
// are computed as float64(i0+k)*step — exactly the expression the peak
// searches have always used — so the exact path stays bit-identical to
// PR-1. It is a pure function of (i0, step, fast, n), which is what makes
// the plan cache sound.
//
// The fast path hoists the per-candidate sincos through the rotation
// recurrence e^{iφ_{k+1}} = e^{iφ_k}·e^{iΔφ}: two multiplies and two adds
// per grid point instead of a sincos, re-seeded from math.Sincos every
// trigReseedInterval points so rounding drift cannot accumulate past
// ~1e-14 rad (TestUniformTrigRecurrenceDrift pins this).
func buildUniformTrig(sin, cos []float64, i0 int, step float64, fast bool) {
	n := len(sin)
	if !fast {
		for k := 0; k < n; k++ {
			sin[k], cos[k] = math.Sincos(float64(i0+k) * step)
		}
		return
	}
	sinStep, cosStep := math.Sincos(step)
	var s, c float64
	for k := 0; k < n; k++ {
		if k%trigReseedInterval == 0 {
			s, c = math.Sincos(float64(i0+k) * step)
		} else {
			s, c = s*cosStep+c*sinStep, c*cosStep-s*sinStep
		}
		sin[k], cos[k] = s, c
	}
}

// evalRow evaluates candidates 0..n-1 of the prepared trig tables at fixed
// gamma, writing the Evaluator's profile values into out[:n]. The caller
// must have filled sc.sinPhi/cosPhi (fillAngleTrig or fillUniformTrig) for
// exactly these candidates.
func (e *Evaluator) evalRow(terms termSlices, sc *Scratch, gamma float64, n int, out []float64) {
	cg := math.Cos(gamma)
	if e.kind != KindR {
		e.evalRowQ(terms, sc, cg, n, out)
		return
	}
	e.evalRowR(terms, sc, cg, n, out)
}

// evalRowQ is the loop-interchanged Q kernel: snapshots outer, candidates
// inner. Each term's fields live in registers across the whole row, and
// each candidate's phasor sum still accumulates in snapshot order — which
// is what keeps the exact path bit-identical to evalQExact.
func (e *Evaluator) evalRowQ(terms termSlices, sc *Scratch, cg float64, n int, out []float64) {
	sumRe := sc.sumRe[:n]
	sumIm := sc.sumIm[:n]
	for k := range sumRe {
		sumRe[k], sumIm[k] = 0, 0
	}
	sinPhi := sc.sinPhi[:n]
	cosPhi := sc.cosPhi[:n]
	m := terms.n()
	if e.fastTrig {
		for i := 0; i < m; i++ {
			tScale, tCosA, tSinA, tRel := terms.scale[i], terms.cosA[i], terms.sinA[i], terms.relPhase[i]
			for k := 0; k < n; k++ {
				aperture := tScale * (tCosA*cosPhi[k] + tSinA*sinPhi[k]) * cg
				s, c := mathx.FastSincos(tRel + aperture)
				sumRe[k] += c
				sumIm[k] += s
			}
		}
		inv := 1 / float64(m)
		for k := 0; k < n; k++ {
			out[k] = math.Sqrt(sumRe[k]*sumRe[k]+sumIm[k]*sumIm[k]) * inv
		}
		return
	}
	for i := 0; i < m; i++ {
		tScale, tCosA, tSinA, tRel := terms.scale[i], terms.cosA[i], terms.sinA[i], terms.relPhase[i]
		for k := 0; k < n; k++ {
			aperture := tScale * (tCosA*cosPhi[k] + tSinA*sinPhi[k]) * cg
			s, c := math.Sincos(tRel + aperture)
			sumRe[k] += c
			sumIm[k] += s
		}
	}
	for k := 0; k < n; k++ {
		out[k] = math.Hypot(sumRe[k], sumIm[k]) / float64(m)
	}
}

// evalRowR evaluates an R-profile row candidate by candidate: the circular
// mean that cancels the shared reference noise needs all of a candidate's
// residuals before the weighting pass, so a full interchange would need an
// n×m intermediate. The row form still amortizes the candidate trig table
// and, in fast mode, runs both snapshot passes on the fast kernel.
func (e *Evaluator) evalRowR(terms termSlices, sc *Scratch, cg float64, n int, out []float64) {
	sinPhi := sc.sinPhi[:n]
	cosPhi := sc.cosPhi[:n]
	if e.fastTrig {
		for k := 0; k < n; k++ {
			out[k] = e.evalRFast(terms, sc, sinPhi[k], cosPhi[k], cg)
		}
		return
	}
	for k := 0; k < n; k++ {
		out[k] = e.evalRExact(terms, sc, sinPhi[k], cosPhi[k], cg)
	}
}
