package spectrum

import "math"

// This file holds the batched row kernel: evaluating a row of candidate
// azimuths (fixed γ) against the snapshot terms in one call. Every dense
// grid scan — Profile2D/3D, the dense oracles' coarse passes and
// ExhaustivePeak2D — is a scanJob whose chunks funnel through evalRow.
//
// The row kernel reproduces the single-candidate arithmetic bit for bit:
// the candidate trig tables hold math.Sincos of each point (computed once
// per scan for an angle list, served by the plan cache for a uniform
// grid), and each candidate is scored by evalCell, the kernel EvalAt runs.

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

// evalRow scores the candidates whose trig sits in sinPhi/cosPhi at fixed
// gamma, writing the Evaluator's profile values into out[:len(sinPhi)].
// The row form amortizes the candidate trig table; each candidate is
// scored by evalCell.
func (e *Evaluator) evalRow(terms termSlices, sc *Scratch, sinPhi, cosPhi []float64, gamma float64, out []float64) {
	cg := math.Cos(gamma)
	cosPhi, out = cosPhi[:len(sinPhi)], out[:len(sinPhi)]
	for k, s := range sinPhi {
		out[k] = e.evalCell(terms, sc, s, cosPhi[k], cg)
	}
}
