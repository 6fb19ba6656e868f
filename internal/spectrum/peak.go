package spectrum

import (
	"fmt"
	"math"
	"slices"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
)

// NoRefine, set as SearchOptions.Refinements, requests a coarse-only
// search: the grid argmax is returned without any local refinement rounds.
// Any negative Refinements value means the same thing; the zero value keeps
// meaning "default rounds", so existing callers are unaffected.
const NoRefine = -1

// SearchOptions tunes the coarse-to-fine peak search: the coarse grid
// spacing and the refinement depth. Which coarse-search route scans the grid
// is not an option — it follows from the profile kind and the grid shape
// (coarseArgmax2D, coarseArgmax3D), and every route returns exactly the
// dense scan's argmax cell.
type SearchOptions struct {
	// CoarseStep is the initial azimuth grid spacing. Zero means 0.5°.
	CoarseStep float64
	// CoarsePolarStep is the initial polar grid spacing (3D only). Zero
	// means 2°.
	CoarsePolarStep float64
	// Refinements is the number of local-grid refinement rounds; each
	// searches 11 candidates per axis around the current best (11×11 in
	// 3D) and shrinks the step by 5×. A round synthesizes its candidates
	// and exact-rescores only those that can win, so the refined peak is
	// the per-candidate search's bit for bit. Zero means 4 (≈0.0008° final
	// resolution from a 0.5° start); NoRefine (or any negative value)
	// disables refinement entirely, returning the raw coarse-grid argmax.
	Refinements int
}

func (o SearchOptions) coarseStep() float64 {
	if o.CoarseStep <= 0 {
		return geom.Radians(0.5)
	}
	return o.CoarseStep
}

func (o SearchOptions) coarsePolarStep() float64 {
	if o.CoarsePolarStep <= 0 {
		return geom.Radians(2)
	}
	return o.CoarsePolarStep
}

func (o SearchOptions) refinements() int {
	switch {
	case o.Refinements < 0: // NoRefine: coarse-only search
		return 0
	case o.Refinements == 0: // zero value: default rounds
		return 4
	default:
		return o.Refinements
	}
}

// gridSteps returns how many grid points of the given spacing cover the
// half-open span [0, span).
func gridSteps(span, step float64) int {
	n := int(math.Ceil(span / step))
	if n < 1 {
		n = 1
	}
	return n
}

// FindPeak2D locates the azimuth maximizing the selected profile using a
// coarse global grid followed by local refinement (ablation A2 validates it
// against exhaustive search). It returns the refined azimuth and the profile
// power there. Callers that already hold an Evaluator — or localize the
// same session repeatedly — should use FindPeak2DEval, which skips the
// snapshot-term preparation.
func FindPeak2D(snaps []phase.Snapshot, p Params, kind Kind, opts SearchOptions) (float64, float64, error) {
	ev, err := NewEvaluator(snaps, p, kind)
	if err != nil {
		return 0, 0, err
	}
	az, pow := FindPeak2DEval(ev, opts)
	return az, pow, nil
}

// FindPeak2DEval is FindPeak2D on a prebuilt Evaluator: the coarse pass
// scores the strided snapshot subset (≤64) over the uniform azimuth grid,
// and the refinement rounds use the full set. Steady-state calls allocate
// nothing — scratch and argmax state come from the Evaluator's pools.
func FindPeak2DEval(ev *Evaluator, opts SearchOptions) (float64, float64) {
	step := opts.coarseStep()
	idx := ev.coarseArgmax2D(ev.coarse, nil, gridSteps(2*math.Pi, step), step)
	return ev.refine2D(float64(idx)*step, step, opts)
}

// FindPeak2DDense is FindPeak2DEval with the coarse pass on the dense
// per-cell scan: the reference the synthesized route must match bit for
// bit. Production code never calls it; tests and benchmark baselines do.
func FindPeak2DDense(ev *Evaluator, opts SearchOptions) (float64, float64) {
	step := opts.coarseStep()
	searchCounters.dense2D.Add(1)
	idx := ev.denseArgmax2D(ev.coarse, gridSteps(2*math.Pi, step), step)
	return ev.refine2DDense(float64(idx)*step, step, opts)
}

// FindPeak2DAngles locates the azimuth maximizing the selected profile over
// an arbitrary (typically non-uniform) candidate grid, then refines locally.
// It is FindPeak2D for callers whose candidate set is not φ_i = i·step —
// jittered survey grids, importance-sampled cells, externally supplied
// candidate lists. The coarse argmax over the given angles is bit-identical
// to a dense scan of the same grid (the synthesized route keeps the
// shortlist-then-rescore contract); refinement then searches the winner's
// neighborhood at the grid's mean spacing.
func FindPeak2DAngles(snaps []phase.Snapshot, p Params, kind Kind, angles []float64, opts SearchOptions) (float64, float64, error) {
	ev, err := NewEvaluator(snaps, p, kind)
	if err != nil {
		return 0, 0, err
	}
	az, pow := FindPeak2DAnglesEval(ev, angles, opts)
	return az, pow, nil
}

// FindPeak2DAnglesEval is FindPeak2DAngles on a prebuilt Evaluator. An empty
// grid returns (0, 0), matching the all-zero-profile default of the uniform
// search.
func FindPeak2DAnglesEval(ev *Evaluator, angles []float64, opts SearchOptions) (float64, float64) {
	if len(angles) == 0 {
		return 0, 0
	}
	idx := ev.coarseArgmax2D(ev.coarse, angles, 0, 0)
	step := 2 * math.Pi / float64(len(angles))
	return ev.refine2D(angles[idx], step, opts)
}

// FindPeak2DAnglesDense is FindPeak2DAnglesEval with the coarse pass on the
// dense per-cell scan of the angle grid — the synthesized route's
// reference, like FindPeak2DDense.
func FindPeak2DAnglesDense(ev *Evaluator, angles []float64, opts SearchOptions) (float64, float64) {
	if len(angles) == 0 {
		return 0, 0
	}
	searchCounters.dense2D.Add(1)
	idx := ev.denseArgmax2DAngles(ev.coarse, angles)
	step := 2 * math.Pi / float64(len(angles))
	return ev.refine2DDense(angles[idx], step, opts)
}

// denseArgmax2DAngles is the full parallel scan over an arbitrary angle
// grid: the row kernels fill a pooled value buffer (the angles geometry has
// no bests reduction), and a serial ascending strict-> pass picks the
// winner — the same lowest-index tie rule as every other argmax.
func (e *Evaluator) denseArgmax2DAngles(terms termSlices, angles []float64) int {
	n := len(angles)
	hs := harmPool.Get().(*harmonicScratch)
	vals := hs.values(n)
	j := e.getJob()
	j.terms = terms
	j.n = n
	j.chunk = chunkTarget
	j.angles = angles
	j.out = vals
	e.scanChunks(j)
	e.putJob(j)
	best, bestVal := 0, math.Inf(-1)
	for k, v := range vals {
		if v > bestVal {
			best, bestVal = k, v
		}
	}
	harmPool.Put(hs)
	return best
}

// coarseArgmax2D returns the dense scan's argmax index over a 2D grid at
// γ = 0, scored on the given term subset: the uniform grid φ_k = k·step,
// k < n, when angles is nil, else the cells of angles (n and step unused).
// Both kinds and both grid shapes take one route. Fold the harmonic
// coefficients once at cos γ = 1, fill the grid's trig table (plan-cached
// when uniform), and synthesize every cell: Q magnitudes (harmonic.go), or
// for R the pass-one sums Ŝ, the prune cut their largest-|Ŝ| cell sets
// (rPruneCut, widened by harmonicSlack) and the weighting pass with the
// shortlist-grade kernels on the survivors (allcells.go). Then shortlist
// every cell within the kind's window of the synthesized maximum —
// 2·harmonicSlack for Q, 2·(rSlack + rCoarseRel·wNorm) for R — and rescore
// those cells exactly from the table's own (sin, cos) entries at cos γ = 1.
// The entries are the math.Sincos bits the dense scan uses, so the rescore
// evaluates what the dense scan evaluates, and the ascending strict-> pass
// keeps its lowest-index tie rule: the returned index is the dense scan's
// bit for bit. The synthesis seeds each cell's Chebyshev recurrence from
// that cell's own table entry, so no grid needs a constant step.
func (e *Evaluator) coarseArgmax2D(terms termSlices, angles []float64, n int, step float64) int {
	sc := e.getScratch()
	if angles != nil {
		n = len(angles)
		fillAngleTrig(sc, angles)
	} else {
		e.fillUniformTrig(sc, 0, n, step)
	}
	hs := harmPool.Get().(*harmonicScratch)
	foldTermsHarmonic(hs, terms, 1)
	vals := hs.values(n)
	sinPhi, cosPhi := sc.sinPhi[:n], sc.cosPhi[:n]
	window := 2 * harmonicSlack
	if e.kind == KindR {
		searchCounters.harmonicR2D.Add(1)
		window = 2 * (rSlack + rCoarseRel*e.wNorm)
		qRe, qIm := sc.sumRe[:n], sc.sumIm[:n]
		hs.coeffs.synthesizeComplex(qRe, qIm, sinPhi, cosPhi)
		cut2 := e.rPruneCut(e.rIncumbent(terms, sc, 1, sinPhi, cosPhi, qRe, qIm), harmonicSlack)
		e.weightRowR(terms, sc, 1, sinPhi, cosPhi, qRe, qIm, vals, true, cut2)
	} else {
		searchCounters.harmonicQ2D.Add(1)
		hs.coeffs.synthesize(vals, sinPhi, cosPhi)
	}
	list, _ := shortlistRow(hs.shortlist[:0], vals, 0, math.Inf(-1), window)
	best, bestV := 0, math.Inf(-1)
	for _, c := range list { // ascending index → lowest-index tie rule
		if v := e.evalCell(terms, sc, sinPhi[c.idx], cosPhi[c.idx], 1); v > bestV {
			best, bestV = c.idx, v
		}
	}
	hs.shortlist = list
	harmPool.Put(hs)
	e.putScratch(sc)
	return best
}

// denseArgmax2D is the full parallel scan over the uniform azimuth grid.
func (e *Evaluator) denseArgmax2D(terms termSlices, n int, step float64) int {
	j := e.getJob()
	j.terms = terms
	j.n = n
	j.chunk = chunkTarget
	j.step = step
	idx, _ := e.argmaxJob(j)
	e.putJob(j)
	return idx
}

// refineCells is the candidate count per axis of a refinement round: the
// winner's ±step neighborhood at step/5 spacing.
const refineCells = 11

// refine2D runs the local refinement rounds from a coarse-grid winner,
// re-scoring it with the full snapshot set first so the comparisons are
// apples-to-apples. Each round covers the refineCells candidates
// best−step … best+step at step/5, then shrinks step 5×. Rounds run like
// the coarse routes: fold the harmonic coefficients over the full term set
// once (γ = 0 in every round), synthesize the round's candidates, and
// exact-rescore in candidate order only those within 2·refineSlack of the
// round's synthesized maximum. The answer is refine2DDense's bit for bit;
// refine3D gives the argument.
func (e *Evaluator) refine2D(best, step float64, opts SearchOptions) (float64, float64) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	bestPow := e.EvalAt(sc, best, 0)
	if opts.refinements() == 0 {
		return geom.NormalizeAngle(best), bestPow
	}
	hs := harmPool.Get().(*harmonicScratch)
	foldTermsHarmonic(hs, e.terms, 1)
	vals := hs.values(refineCells)
	var phis [refineCells]float64
	for r := 0; r < opts.refinements(); r++ {
		fine := step / 5
		sinPhi, cosPhi := refineTrig(sc, &phis, best-step, fine)
		e.synthRow(&hs.coeffs, sc, 1, sinPhi, cosPhi, vals)
		cut := maxOf(vals) - 2*e.refineSlack()
		for k, phi := range phis {
			if vals[k] < cut {
				continue
			}
			if v := e.EvalAt(sc, phi, 0); v > bestPow {
				best, bestPow = phi, v
			}
		}
		step = fine
	}
	harmPool.Put(hs)
	return geom.NormalizeAngle(best), bestPow
}

// refine2DDense is refine2D scoring every candidate with EvalAt — the
// oracle behind FindPeak2DDense and FindPeak2DAnglesDense.
func (e *Evaluator) refine2DDense(best, step float64, opts SearchOptions) (float64, float64) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	bestPow := e.EvalAt(sc, best, 0)
	for r := 0; r < opts.refinements(); r++ {
		fine := step / 5
		lo := best - step
		for k := 0; k <= 10; k++ {
			phi := lo + float64(k)*fine
			if v := e.EvalAt(sc, phi, 0); v > bestPow {
				best, bestPow = phi, v
			}
		}
		step = fine
	}
	return geom.NormalizeAngle(best), bestPow
}

// refineSlack bounds |synthesized − EvalAt| for one refinement candidate;
// a round's shortlist window is twice it. Refinement synthesizes with the
// accurate kernels only, so no coarse-kernel widening applies, and EvalAt
// is exact, so the bound need only cover synthesis: qExactSlack for Q, and
// for R a wNorm-relative budget (rExactRel, rExactMuRel) that also holds at
// extreme user σ. TestRefineSynthSlack pins both kinds on full sessions.
func (e *Evaluator) refineSlack() float64 {
	if e.kind == KindR {
		return e.wNorm * (rExactRel + rExactMuRel/e.weightSigma)
	}
	return qExactSlack
}

// Refinement slacks (refineSlack).
const (
	// qExactSlack bounds synthesized Q against evalQExact: Bessel
	// truncation (≲1e-20) plus fold and Chebyshev rounding, measured at
	// ≲3e-15 on 100–500-read sessions; 1e-9 leaves orders of margin.
	qExactSlack = 1e-9
	// rExactRel bounds the wNorm-relative R error that does not depend on
	// σ_w: FastExpNegCore weights ≤ FastExpNegMaxErr = 1e-8, wrapped-range
	// phasors ≤ 1.5·√2·wrappedSincosMaxErr ≈ 4.2e-9, the rFlushX tail
	// e^(−24) ≈ 4e-11 — about 1.5e-8, taken with 3× margin.
	rExactRel = 5e-8
	// rExactMuRel·wNorm/σ_w bounds the μ̂ term: the guard keeps
	// |Ŝ|/n ≥ muGuardFrac, so μ̂ moves by ≤ 1e-12/muGuardFrac = 1e-8 rad,
	// and |∂R/∂μ| ≤ wNorm·e^(−1/2)/σ_w turns that into ≤ 6.1e-9·wNorm/σ_w —
	// taken with 5× margin. At the default σ the whole R slack is ≈4.8e-7,
	// against a measured worst case near 2e-8.
	rExactMuRel = 3e-8
)

// refineTrig fills phis with a round's azimuth candidates lo + k·fine —
// the very expression the dense loop evaluates — and sc's row tables with
// their exact trig, as fillAngleTrig does. Refinement tables are not
// plan-cache traffic, so unlike fillAngleTrig it counts no bypass.
func refineTrig(sc *Scratch, phis *[refineCells]float64, lo, fine float64) (sinPhi, cosPhi []float64) {
	sc.ensureRow(refineCells)
	sinPhi, cosPhi = sc.sinPhi[:refineCells], sc.cosPhi[:refineCells]
	for k := range phis {
		phis[k] = lo + float64(k)*fine
		sinPhi[k], cosPhi[k] = math.Sincos(phis[k])
	}
	return sinPhi, cosPhi
}

// ExhaustivePeak2D locates the peak on a single dense grid with the given
// step, evaluated in parallel across the grid. It exists as the ground-truth
// comparator for the coarse-to-fine search (ablation A2); it is O(n/step)
// and much slower at fine steps.
func ExhaustivePeak2D(snaps []phase.Snapshot, p Params, kind Kind, step float64) (float64, float64, error) {
	if step <= 0 {
		return 0, 0, fmt.Errorf("spectrum: non-positive step %v", step)
	}
	ev, err := NewEvaluator(snaps, p, kind)
	if err != nil {
		return 0, 0, err
	}
	j := ev.getJob()
	j.terms = ev.terms
	j.n = gridSteps(2*math.Pi, step)
	j.chunk = chunkTarget
	j.step = step
	idx, pow := ev.argmaxJob(j)
	ev.putJob(j)
	return float64(idx) * step, pow, nil
}

// Peak3D is one located maximum of a 3D profile.
type Peak3D struct {
	Azimuth float64
	Polar   float64
	Power   float64
}

// FindPeak3D locates the (azimuth, polar) pair maximizing the selected 3D
// profile, coarse-to-fine. Because the z-mirror of the true direction scores
// identically (§V-B), callers usually restrict interpretation to γ ≥ 0 or
// use dead-space rules; this function simply returns the global maximum it
// finds. Callers that already hold an Evaluator should use FindPeak3DEval.
func FindPeak3D(snaps []phase.Snapshot, p Params, kind Kind, opts SearchOptions) (Peak3D, error) {
	ev, err := NewEvaluator(snaps, p, kind)
	if err != nil {
		return Peak3D{}, err
	}
	return FindPeak3DEval(ev, opts), nil
}

// grid3D returns the 3D coarse grid the options select: the azimuth spacing
// (4× the 2D step — the 3D coarse pass can be coarser, refinement recovers
// it), the polar spacing, and the cell counts over [0, 2π) × [-π/2, π/2].
// Cells are row-major: cell k is polar row k/nAz, azimuth k%nAz.
func (o SearchOptions) grid3D() (azStep, polStep float64, nAz, nPol int) {
	azStep = o.coarseStep() * 4
	polStep = o.coarsePolarStep()
	nAz = gridSteps(2*math.Pi, azStep)
	nPol = int(math.Floor(math.Pi/polStep+1e-9)) + 1 // [-π/2, π/2] inclusive
	return azStep, polStep, nAz, nPol
}

// FindPeak3DEval is FindPeak3D on a prebuilt Evaluator. The coarse pass
// scores the strided snapshot subset (≤64) over the az × polar grid, and
// the refinement rounds use the full set.
func FindPeak3DEval(ev *Evaluator, opts SearchOptions) Peak3D {
	azStep, polStep, nAz, nPol := opts.grid3D()
	idx := ev.coarseArgmax3D(ev.coarse, nAz, nPol, azStep, polStep)
	best := Peak3D{
		Azimuth: float64(idx%nAz) * azStep,
		Polar:   -math.Pi/2 + float64(idx/nAz)*polStep,
	}
	return ev.refine3D(best, azStep, polStep, opts)
}

// FindPeak3DDense is FindPeak3DEval with the coarse pass on the dense
// per-cell scan — the synthesized route's reference, like FindPeak2DDense.
func FindPeak3DDense(ev *Evaluator, opts SearchOptions) Peak3D {
	azStep, polStep, nAz, nPol := opts.grid3D()
	searchCounters.dense3D.Add(1)
	idx := ev.denseArgmax3D(ev.coarse, nAz, nPol, azStep, polStep)
	best := Peak3D{
		Azimuth: float64(idx%nAz) * azStep,
		Polar:   -math.Pi/2 + float64(idx/nAz)*polStep,
	}
	return ev.refine3DDense(best, azStep, polStep, opts)
}

// coarseArgmax3D is coarseArgmax2D over the az × polar grid: both kinds
// synthesize row by row through harmonicArgmax3D (allcells.go), which
// shortlists and exact-rescores, returning exactly the dense scan's cell.
func (e *Evaluator) coarseArgmax3D(terms termSlices, nAz, nPol int, azStep, polStep float64) int {
	if e.kind == KindR {
		searchCounters.harmonicR3D.Add(1)
	} else {
		searchCounters.harmonicQ3D.Add(1)
	}
	return e.harmonicArgmax3D(terms, nAz, nPol, azStep, polStep)
}

// denseArgmax3D is the full parallel scan over the az × polar grid, chunked
// by polar row — the oracle behind FindPeak3DDense.
func (e *Evaluator) denseArgmax3D(terms termSlices, nAz, nPol int, azStep, polStep float64) int {
	j := e.getJob()
	j.terms = terms
	j.n = nAz * nPol
	j.chunk = nAz
	j.step = azStep
	j.azCount = nAz
	j.polBase = -math.Pi / 2
	j.polStep = polStep
	idx, _ := e.argmaxJob(j)
	e.putJob(j)
	return idx
}

// refine3D is refine2D over (azimuth, polar): each round covers the
// refineCells × refineCells candidates, polar rows outer. Every row folds
// the coefficients at its own cos γ and synthesizes its azimuths; the
// round then exact-rescores, in candidate order, the candidates within
// 2·refineSlack of its synthesized maximum. A single-wavelength session
// folds its terms once per refine (foldUnitSums) and each row only scales
// those sums by its Bessel table (scaleUnitSums). A row whose cos γ repeats an
// earlier row's — rows clamped at ±π/2, or a ±γ pair — is skipped
// outright: EvalAt sees γ only through cos γ, so it would score exactly
// the earlier row's values and, under the strict >, never win. The answer
// is refine3DDense's bit for bit.
//
// Why the shortlist cannot change the answer: the dense loop returns the
// incoming best unless some candidate beats it, and otherwise the first
// candidate (in order) that reaches the round's exact maximum V*. That
// candidate sits in a synthesized row and its synthesized value is at
// least V* − slack, while no synthesized value exceeds V* + slack, so it
// is inside the 2·slack window; every other candidate the shortlist keeps
// scores at most V*. Rescoring the kept candidates in order under the
// same strict > therefore picks the same winner — or keeps the incoming
// best exactly when the dense loop does.
func (e *Evaluator) refine3D(best Peak3D, azStep, polStep float64, opts SearchOptions) Peak3D {
	sc := e.getScratch()
	defer e.putScratch(sc)
	best.Power = e.EvalAt(sc, best.Azimuth, best.Polar)
	if opts.refinements() == 0 {
		best.Azimuth = geom.NormalizeAngle(best.Azimuth)
		return best
	}
	hs := harmPool.Get().(*harmonicScratch)
	vals := hs.values(refineCells * refineCells)
	window := 2 * e.refineSlack()
	z := e.terms.singleScale()
	if z > 0 {
		foldUnitSums(hs, e.terms)
	}
	var phis, gammas, cgs [refineCells]float64
	for r := 0; r < opts.refinements(); r++ {
		fineAz, finePol := azStep/5, polStep/5
		polLo := best.Polar - polStep
		sinPhi, cosPhi := refineTrig(sc, &phis, best.Azimuth-azStep, fineAz)
		maxV := math.Inf(-1)
		for i := range gammas {
			gammas[i] = clampPolar(polLo + float64(i)*finePol)
			cgs[i] = math.Cos(gammas[i])
			row := vals[i*refineCells : (i+1)*refineCells]
			if slices.Contains(cgs[:i], cgs[i]) {
				for k := range row {
					row[k] = math.Inf(-1)
				}
				continue
			}
			foldRow(hs, e.terms, z, cgs[i])
			e.synthRow(&hs.coeffs, sc, cgs[i], sinPhi, cosPhi, row)
			maxV = max(maxV, maxOf(row))
		}
		cut := maxV - window
		for i, gamma := range gammas {
			for k, phi := range phis {
				if vals[i*refineCells+k] < cut {
					continue
				}
				if v := e.EvalAt(sc, phi, gamma); v > best.Power {
					best = Peak3D{Azimuth: phi, Polar: gamma, Power: v}
				}
			}
		}
		azStep, polStep = fineAz, finePol
	}
	harmPool.Put(hs)
	best.Azimuth = geom.NormalizeAngle(best.Azimuth)
	return best
}

// foldRow leaves the coefficients of terms at cos γ = cg in hs.coeffs. A
// single-scale set (z = terms.singleScale() > 0, hs.unit already folded
// from terms by foldUnitSums) scales its unit sums; a set mixing
// wavelengths (z = 0) folds every term.
func foldRow(hs *harmonicScratch, terms termSlices, z, cg float64) {
	if z > 0 {
		scaleUnitSums(hs, z*cg)
		return
	}
	foldTermsHarmonic(hs, terms, cg)
}

// refine3DDense is refine3D scoring every candidate with EvalAt — the
// oracle behind FindPeak3DDense.
func (e *Evaluator) refine3DDense(best Peak3D, azStep, polStep float64, opts SearchOptions) Peak3D {
	// Re-score the coarse winner with the full snapshot set so the
	// refinement comparisons are apples-to-apples.
	sc := e.getScratch()
	defer e.putScratch(sc)
	best.Power = e.EvalAt(sc, best.Azimuth, best.Polar)
	for r := 0; r < opts.refinements(); r++ {
		fineAz, finePol := azStep/5, polStep/5
		azLo, polLo := best.Azimuth-azStep, best.Polar-polStep
		for i := 0; i <= 10; i++ {
			gamma := clampPolar(polLo + float64(i)*finePol)
			for k := 0; k <= 10; k++ {
				phi := azLo + float64(k)*fineAz
				if v := e.EvalAt(sc, phi, gamma); v > best.Power {
					best = Peak3D{Azimuth: phi, Polar: gamma, Power: v}
				}
			}
		}
		azStep, polStep = fineAz, finePol
	}
	best.Azimuth = geom.NormalizeAngle(best.Azimuth)
	return best
}

// clampPolar keeps a polar candidate inside [-π/2, π/2].
func clampPolar(g float64) float64 {
	if g < -math.Pi/2 {
		return -math.Pi / 2
	}
	if g > math.Pi/2 {
		return math.Pi / 2
	}
	return g
}
