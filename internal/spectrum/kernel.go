package spectrum

import "math"

// This file holds the batched row kernel: evaluating a whole row of
// candidate azimuths (fixed γ) against the snapshot terms in one call.
// Exact grid scans — Profile2D/3D, the dense oracles' coarse passes and
// ExhaustivePeak2D — all funnel through evalRow.
//
// The row kernel reproduces the single-candidate arithmetic bit for bit:
// the candidate trig table is filled with math.Sincos per point, and each
// candidate is scored by evalCell, the kernel EvalAt runs.

// fillAngleTrig fills sc.sinPhi/cosPhi with the trig of arbitrary
// candidate angles. It must use math.Sincos: grid scans stay bit-identical
// to per-candidate evaluation.
func fillAngleTrig(sc *Scratch, angles []float64) {
	n := len(angles)
	if n >= planMinN {
		// Cache-unservable build: arbitrary angles have no uniform-step
		// plan key. Counted so the non-uniform bypass rate shows up next
		// to the plan-cache hit rate.
		planCache.nonUniformMiss.Add(1)
	}
	sc.ensureRow(n)
	sinPhi := sc.sinPhi[:n]
	cosPhi := sc.cosPhi[:n]
	for k := range angles {
		sinPhi[k], cosPhi[k] = math.Sincos(angles[k])
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
		planCache.fill(sc.sinPhi[:n], sc.cosPhi[:n], planKey{i0: i0, n: n, step: step})
		return
	}
	buildUniformTrig(sc.sinPhi[:n], sc.cosPhi[:n], i0, step)
}

// buildUniformTrig computes sin/cos of the uniform grid points
// φ_k = (i0+k)·step into sin[:n]/cos[:n] (n = len(sin)). The angle values
// are computed as float64(i0+k)*step — exactly the expression the peak
// searches have always used — so the tables stay bit-identical to
// per-candidate math.Sincos. It is a pure function of (i0, step, n), which
// is what makes the plan cache sound.
func buildUniformTrig(sin, cos []float64, i0 int, step float64) {
	for k := range sin {
		sin[k], cos[k] = math.Sincos(float64(i0+k) * step)
	}
}

// evalRow evaluates candidates 0..n-1 of the prepared trig tables at fixed
// gamma, writing the Evaluator's profile values into out[:n]. The caller
// must have filled sc.sinPhi/cosPhi (fillAngleTrig or fillUniformTrig) for
// exactly these candidates. The row form amortizes the candidate trig
// table; each candidate is scored by evalCell.
func (e *Evaluator) evalRow(terms termSlices, sc *Scratch, gamma float64, n int, out []float64) {
	cg := math.Cos(gamma)
	sinPhi := sc.sinPhi[:n]
	cosPhi := sc.cosPhi[:n]
	for k := range sinPhi {
		out[k] = e.evalCell(terms, sc, sinPhi[k], cosPhi[k], cg)
	}
}
