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
// is not an option — both dimensions run one route (harmonicArgmax3D, then
// refine3D) whose grid shape alone tells 2D from 3D, and it returns exactly
// the dense scan's argmax cell.
type SearchOptions struct {
	// CoarseStep is the initial azimuth grid spacing. Zero means 0.5°.
	CoarseStep float64
	// CoarsePolarStep is the initial polar grid spacing (3D only). Zero
	// means 2°.
	CoarsePolarStep float64
	// Refinements is the refinement depth N: the search resolves the peak
	// to the coarse step over 5^N (≈0.0008° in 2D and ≈0.003° in 3D at
	// the default). Each grid round searches 11 candidates per axis
	// around the current best (11×11 in 3D) and shrinks the step 5×; Q
	// runs N such rounds. R runs round 1, then polishes continuously to
	// the same final spacing, and runs the remaining rounds only when the
	// polish falls back. Zero means 4; NoRefine (or any negative value)
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

// FindPeak2DEval is FindPeak2D on a prebuilt Evaluator: the 3D search on
// the single polar row γ = 0, where Eqn. 11/12 reduce to Eqn. 7/8. The
// coarse pass scores the strided snapshot subset (≤64) over the uniform
// azimuth grid, and refinement (refine3D) uses the full set, moving in
// azimuth only (polar step 0). Steady-state calls allocate nothing —
// scratch and argmax state come from process-wide free lists and pools.
func FindPeak2DEval(ev *Evaluator, opts SearchOptions) (float64, float64) {
	step := opts.coarseStep()
	if ev.kind == KindR {
		searchCounters.harmonicR2D.Add(1)
	} else {
		searchCounters.harmonicQ2D.Add(1)
	}
	idx := ev.harmonicArgmax3D(ev.coarse, gridSteps(2*math.Pi, step), 1, step, 0, 0)
	best := ev.refine3D(Peak3D{Azimuth: float64(idx) * step}, step, 0, opts, false)
	return best.Azimuth, best.Power
}

// FindPeak2DDense is FindPeak2DEval with the coarse pass on the dense
// per-cell scan: the reference the synthesized route must match bit for
// bit. Production code never calls it; tests and benchmark baselines do.
func FindPeak2DDense(ev *Evaluator, opts SearchOptions) (float64, float64) {
	step := opts.coarseStep()
	searchCounters.dense2D.Add(1)
	idx, _ := ev.denseArgmax(ev.coarse, gridSteps(2*math.Pi, step), 1, step, 0, 0)
	best := ev.refine3D(Peak3D{Azimuth: float64(idx) * step}, step, 0, opts, true)
	return best.Azimuth, best.Power
}

// refineCells is the candidate count per axis of a refinement round: the
// winner's ±step neighborhood at step/5 spacing.
const refineCells = 11

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
// their exact trig, as a dense scan of an angle list does. Refinement
// tables are not plan-cache traffic, so unlike scanAngles it counts no
// bypass.
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
	idx, pow := ev.denseArgmax(ev.terms, gridSteps(2*math.Pi, step), 1, step, 0, 0)
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
// refinement (refine3D) uses the full set.
func FindPeak3DEval(ev *Evaluator, opts SearchOptions) Peak3D {
	azStep, polStep, nAz, nPol := opts.grid3D()
	if ev.kind == KindR {
		searchCounters.harmonicR3D.Add(1)
	} else {
		searchCounters.harmonicQ3D.Add(1)
	}
	idx := ev.harmonicArgmax3D(ev.coarse, nAz, nPol, azStep, -math.Pi/2, polStep)
	best := Peak3D{
		Azimuth: float64(idx%nAz) * azStep,
		Polar:   -math.Pi/2 + float64(idx/nAz)*polStep,
	}
	return ev.refine3D(best, azStep, polStep, opts, false)
}

// FindPeak3DDense is FindPeak3DEval with the coarse pass on the dense
// per-cell scan — the synthesized route's reference, like FindPeak2DDense.
func FindPeak3DDense(ev *Evaluator, opts SearchOptions) Peak3D {
	azStep, polStep, nAz, nPol := opts.grid3D()
	searchCounters.dense3D.Add(1)
	idx, _ := ev.denseArgmax(ev.coarse, nAz, nPol, azStep, -math.Pi/2, polStep)
	best := Peak3D{
		Azimuth: float64(idx%nAz) * azStep,
		Polar:   -math.Pi/2 + float64(idx/nAz)*polStep,
	}
	return ev.refine3D(best, azStep, polStep, opts, true)
}

// refine3D runs the local refinement of both peak searches from a
// coarse-grid winner, re-scoring it with the full snapshot set first so the
// comparisons are apples-to-apples. A grid round covers the refineCells ×
// refineCells candidates best ± step at step/5 per axis and shrinks both
// steps 5×; a 2D search passes polar step 0, so it moves in azimuth only.
// Q runs every round on the grid. R runs round 1 on the grid, which picks
// the basin, then polishR climbs to the resolution the remaining rounds
// would reach; a polish that cannot finish falls back to those rounds from
// its best point, and searchCounters counts it. dense selects the grid
// loop: false the synthesized one (synthRounds, production), true the
// per-candidate one (denseRounds, the FindPeak*Dense oracle). The two pick
// the same candidate bit for bit, and the polish and fallback run the same
// code on it, so FindPeak*Eval returns FindPeak*Dense's peak bit for bit.
func (e *Evaluator) refine3D(best Peak3D, azStep, polStep float64, opts SearchOptions, dense bool) Peak3D {
	sc := e.getScratch()
	defer putScratch(sc)
	best.Power = e.EvalAt(sc, best.Azimuth, best.Polar)
	rounds := opts.refinements()
	if e.kind == KindR && rounds > 1 {
		best = e.gridRounds(sc, best, azStep, polStep, 1, dense)
		azStep, polStep, rounds = azStep/5, polStep/5, rounds-1
		var ok bool
		if best, ok = e.polishR(sc, best, azStep, polStep, rounds); ok {
			rounds = 0
		} else {
			searchCounters.polishFallbacks.Add(1)
		}
	}
	best = e.gridRounds(sc, best, azStep, polStep, rounds, dense)
	best.Azimuth = geom.NormalizeAngle(best.Azimuth)
	return best
}

// gridRounds runs rounds grid refinement rounds from best, whose Power must
// be EvalAt's: synthRounds, or denseRounds when dense is set.
func (e *Evaluator) gridRounds(sc *Scratch, best Peak3D, azStep, polStep float64, rounds int, dense bool) Peak3D {
	if rounds <= 0 {
		return best
	}
	if dense {
		return e.denseRounds(sc, best, azStep, polStep, rounds)
	}
	return e.synthRounds(sc, best, azStep, polStep, rounds)
}

// synthRounds is the synthesized grid loop. Every row folds the
// coefficients at its own cos γ and synthesizes its azimuths; the round
// then exact-rescores, in candidate order, the candidates within
// 2·refineSlack of its synthesized maximum. A single-wavelength session
// folds its terms once per call (foldUnitSums) and each row only scales
// those sums by its Bessel table (scaleUnitSums). A row whose cos γ repeats
// an earlier row's — rows clamped at ±π/2, a ±γ pair, or every row after
// the first of a 2D search — is skipped outright: EvalAt sees γ only
// through cos γ, so it would score exactly the earlier row's values and,
// under the strict >, never win. The answer is denseRounds' bit for bit.
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
func (e *Evaluator) synthRounds(sc *Scratch, best Peak3D, azStep, polStep float64, rounds int) Peak3D {
	hs := harmPool.Get().(*harmonicScratch)
	vals := hs.values(refineCells * refineCells)
	window := 2 * e.refineSlack()
	z := e.terms.singleScale()
	if z > 0 {
		foldUnitSums(hs, e.terms)
	}
	var phis, gammas, cgs [refineCells]float64
	for r := 0; r < rounds; r++ {
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

// denseRounds is the grid loop scoring every candidate with EvalAt — the
// oracle's. A 2D search (polar step 0) scores its one row only: the other
// ten repeat it and, under the strict >, never win.
func (e *Evaluator) denseRounds(sc *Scratch, best Peak3D, azStep, polStep float64, rounds int) Peak3D {
	rows := refineCells
	if polStep == 0 {
		rows = 1
	}
	for r := 0; r < rounds; r++ {
		fineAz, finePol := azStep/5, polStep/5
		azLo, polLo := best.Azimuth-azStep, best.Polar-polStep
		for i := 0; i < rows; i++ {
			gamma := clampPolar(polLo + float64(i)*finePol)
			for k := 0; k < refineCells; k++ {
				phi := azLo + float64(k)*fineAz
				if v := e.EvalAt(sc, phi, gamma); v > best.Power {
					best = Peak3D{Azimuth: phi, Polar: gamma, Power: v}
				}
			}
		}
		azStep, polStep = fineAz, finePol
	}
	return best
}

// polishMaxSteps caps one polish's steps. From a round-1 winner the polish
// converges in two or three; one that has not converged by the cap falls
// back to the grid.
const polishMaxSteps = 12

// polishR climbs R from the round-1 winner best, in place of the rounds
// grid rounds that would follow it, and reports whether it converged. It
// works in round-1 cells, u = Δφ/cellAz and v = Δγ/cellPol; cellPol = 0 (a
// 2D search) drops the polar axis. Its box is one cell around best, inside
// [−π/2, π/2] and on best's side of γ = 0 (EvalAt sees γ only through
// cos γ, so ±γ tie). The grid would stop at spacing res = 5^−rounds cells,
// which is both the finite-difference step and the stopping size. Each step
// takes the gradient and Hessian of R by central differences (five EvalAt
// with the cross term, two in 2D), moves by the Newton step when the
// Hessian is negative definite and otherwise along the gradient, at most
// one cell either way, and then backtracks, halving the step until EvalAt
// rises. A step shorter than res on both axes is the last: it is taken if
// it raises EvalAt, and the polish has converged.
//
// The polish gives up, at its highest point so far, when a step would
// leave the box (the peak lies beyond it, where grid rounds reach), when a
// step halves below res without raising EvalAt, when the last step is no
// Newton step (a saddle or a flat axis), or after polishMaxSteps steps.
// Every point it returns is scored by EvalAt at exactly that point, so
// Power stays exact.
func (e *Evaluator) polishR(sc *Scratch, best Peak3D, cellAz, cellPol float64, rounds int) (Peak3D, bool) {
	res := math.Pow(5, -float64(rounds))
	threeD := cellPol > 0
	a0, g0 := best.Azimuth, best.Polar
	polLo, polHi := g0, g0
	vLo, vHi := 0.0, 0.0
	if threeD {
		polLo, polHi = max(g0-cellPol, -math.Pi/2), min(g0+cellPol, math.Pi/2)
		if g0 > 0 {
			polLo = max(polLo, 0)
		} else if g0 < 0 {
			polHi = min(polHi, 0)
		}
		vLo, vHi = (polLo-g0)/cellPol, (polHi-g0)/cellPol
	}
	evals := 0
	probe := func(u, v float64) float64 {
		evals++
		return e.EvalAt(sc, a0+u*cellAz, g0+v*cellPol)
	}
	point := func(u, v float64) (phi, gamma float64) {
		return a0 + u*cellAz, min(max(g0+v*cellPol, polLo), polHi)
	}
	u, v, f, h := 0.0, 0.0, best.Power, res
	ok := false
steps:
	for range polishMaxSteps {
		fu, fum := probe(u+h, v), probe(u-h, v)
		gu, huu := (fu-fum)/(2*h), (fu-2*f+fum)/(h*h)
		var gv, hvv, huv float64
		if threeD {
			fv, fvm := probe(u, v+h), probe(u, v-h)
			gv, hvv = (fv-fvm)/(2*h), (fv-2*f+fvm)/(h*h)
			huv = (probe(u+h, v+h) - fu - fv + f) / (h * h)
		}
		du, dv := gu, gv
		det := huu*hvv - huv*huv
		newton := huu < 0 && (!threeD || det > 0)
		switch {
		case newton && threeD:
			du, dv = (huv*gv-hvv*gu)/det, (huv*gu-huu*gv)/det
		case newton:
			du = -gu / huu
		}
		if s := max(math.Abs(du), math.Abs(dv)); s > 1 || (!newton && s > 0) {
			du, dv = du/s, dv/s
		}
		if math.Abs(u+du) > 1 || v+dv < vLo || v+dv > vHi {
			break // the peak lies beyond the box
		}
		last := max(math.Abs(du), math.Abs(dv)) < res
		if last && !newton {
			break
		}
		for {
			phi, gamma := point(u+du, v+dv)
			evals++
			if fn := e.EvalAt(sc, phi, gamma); fn > f {
				u, v, f = u+du, v+dv, fn
				break
			}
			if last {
				break
			}
			du, dv = du/2, dv/2
			if max(math.Abs(du), math.Abs(dv)) < res {
				break steps
			}
		}
		if last {
			ok = true
			break
		}
	}
	searchCounters.polishes.Add(1)
	searchCounters.polishEvals.Add(uint64(evals))
	best.Azimuth, best.Polar = point(u, v)
	best.Power = f
	return best, ok
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
