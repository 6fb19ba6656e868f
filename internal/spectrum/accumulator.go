package spectrum

import (
	"context"
	"fmt"
	"math"

	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/sched"
)

// Accumulator folds snapshots into per-cell running sums over a coarse
// candidate grid — uniform by default, arbitrary via NewAccumulator2DAngles
// — the moment they arrive, so that by the time a spin session ends the
// coarse profile is already computed and only the argmax plus the local
// refinement rounds remain. Both profile kinds are additive in the
// snapshot index: Q(φ) sums one phasor per snapshot, and R(φ)'s
// Gaussian-likelihood weights are per-snapshot too (Definitions 4.1/5.1).
// Concretely, Add streams:
//
//   - KindQ: the phasor sums Σ e^{j(θ_k+aperture_k(cell))} per cell.
//   - KindR with LiteralReference: the weighted sums Σ w_k·e^{j(…)} — the
//     weight needs only the snapshot's own residual, so the whole profile
//     streams and Finalize is O(cells).
//   - KindR robust (default): the residual circular sums Σ sin/cos(res_k)
//     per cell. The robust weight subtracts the circular mean μ(cell) of
//     *all* residuals, which only exists at the end of the session, so
//     Finalize runs the weighting pass — still saving the streamed first
//     pass.
//
// The exact-trig path is bit-identical to the batch Evaluator's per-cell
// arithmetic: terms come from the same makeTerm, cells use the same
// float64(i)*step angles and plan-cached trig tables, and each cell's sum
// accumulates in snapshot order with the same expression shapes as
// evalQExact/evalRExact. Equivalence tests pin CoarseProfile against
// Profile2D/Profile3D bit for bit.
//
// An Accumulator is NOT safe for concurrent use: Add, Finalize-side calls,
// and CoarseProfile must run on one goroutine at a time (core.Stream gives
// it a single ingestion worker). Wide grids chunk each Add through the
// shared compute pool internally; chunks write disjoint cell ranges.
type Accumulator struct {
	params   Params
	kind     Kind
	opts     SearchOptions
	evalOpts []EvalOption
	fastTrig bool

	// Hoisted R-weight constants, mirroring Evaluator.
	weightSigma float64
	wNorm       float64
	wInv2Sig    float64

	// Grid geometry. 2D grids have nPol == 1 with polStep 0 and cosG[0] ==
	// cos(0); 3D grids are row-major (cell k = polar row k/nAz, azimuth
	// k%nAz), exactly like the batch coarse argmax.
	threeD           bool
	step             float64 // azimuth spacing (mean spacing in angles mode)
	polBase, polStep float64
	nAz, nPol, n     int
	// angles, when non-nil, is the arbitrary 2D candidate grid of
	// NewAccumulator2DAngles: cell k is angles[k] instead of k·step, the
	// trig tables below are built per angle (no plan-cache key exists), and
	// the finalize replays the batch angle-grid selection
	// (coarseArgmax2DAngles / FindPeak2DAnglesEval).
	angles []float64

	sinPhi, cosPhi []float64 // uniform azimuth trig table (plan cache)
	cosG           []float64 // cos γ per polar row

	// Per-cell running sums (allocated per mode).
	qRe, qIm       []float64 // Q phasor sums
	wRe, wIm       []float64 // literal-R weighted phasor sums
	resSin, resCos []float64 // robust-R residual circular sums
	refAper        []float64 // reference aperture per cell (KindR)

	terms   []snapshotTerm
	ref     phase.Snapshot
	haveRef bool
	pending snapshotTerm // the term the in-flight chunked fold reads
	ev      *Evaluator   // lazily built at finalize, invalidated by Add
}

// NewAccumulator2D builds a streaming accumulator over the 2D coarse grid
// the batch peak search would scan for the same SearchOptions. evalOpts
// accepts the same options as NewEvaluator (WithFastTrig) and is forwarded
// to the finalize Evaluator.
func NewAccumulator2D(p Params, kind Kind, opts SearchOptions, evalOpts ...EvalOption) (*Accumulator, error) {
	return newAccumulator(p, kind, opts, false, nil, evalOpts)
}

// NewAccumulator2DAngles is NewAccumulator2D over an arbitrary (typically
// non-uniform) 2D candidate grid: cell k accumulates at angles[k]. The
// uniform-grid restriction of the streaming finalize is lifted the same way
// the batch side lifts it — exact-path per-cell sums stay bit-identical to
// the batch dense scan over the same angles (the trig table is built per
// angle with the same kernel fillAngleTrig uses), and the finalize replays
// the batch angle-grid selection so FindPeak2D returns
// FindPeak2DAnglesEval's bits. The grid must be non-empty.
func NewAccumulator2DAngles(p Params, kind Kind, angles []float64, opts SearchOptions, evalOpts ...EvalOption) (*Accumulator, error) {
	if len(angles) == 0 {
		return nil, fmt.Errorf("spectrum: angle-grid accumulator needs a non-empty grid")
	}
	return newAccumulator(p, kind, opts, false, angles, evalOpts)
}

// NewAccumulator3D is NewAccumulator2D over the az × polar coarse grid of
// the batch 3D peak search.
func NewAccumulator3D(p Params, kind Kind, opts SearchOptions, evalOpts ...EvalOption) (*Accumulator, error) {
	return newAccumulator(p, kind, opts, true, nil, evalOpts)
}

func newAccumulator(p Params, kind Kind, opts SearchOptions, threeD bool, angles []float64, evalOpts []EvalOption) (*Accumulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Accumulator{
		params:      p,
		kind:        kind,
		opts:        opts,
		evalOpts:    evalOpts,
		weightSigma: p.weightSigma(),
		threeD:      threeD,
	}
	a.wNorm = 1 / (a.weightSigma * math.Sqrt(mathx.TwoPi))
	a.wInv2Sig = 1 / (2 * a.weightSigma * a.weightSigma)
	// Probe the EvalOptions through a throwaway Evaluator: the option type
	// is shared with NewEvaluator so callers configure both engines with
	// one vocabulary.
	var probe Evaluator
	for _, opt := range evalOpts {
		opt(&probe)
	}
	a.fastTrig = probe.fastTrig

	switch {
	case threeD:
		a.step, a.polStep, a.nAz, a.nPol = opts.grid3D() // matches FindPeak3DEval
		a.polBase = -math.Pi / 2
	case angles != nil:
		a.angles = append([]float64(nil), angles...)
		a.nAz = len(angles)
		a.nPol = 1
		// Refinement step only: FindPeak2DAnglesEval refines the winner at
		// the grid's mean spacing, and the streamed finalize must match it.
		a.step = 2 * math.Pi / float64(a.nAz)
	default:
		a.step = opts.coarseStep()
		a.nAz = gridSteps(2*math.Pi, a.step)
		a.nPol = 1
	}
	a.n = a.nAz * a.nPol

	a.sinPhi = make([]float64, a.nAz)
	a.cosPhi = make([]float64, a.nAz)
	switch {
	case a.angles != nil:
		// No uniform-step plan key exists for an arbitrary grid (counted
		// like fillAngleTrig's bypass); the per-angle build uses the same
		// kernel per trig mode as fillAngleTrig, so the streamed folds see
		// exactly the table bits the batch dense scan would.
		if a.nAz >= planMinN {
			planCache.nonUniformMiss.Add(1)
		}
		if a.fastTrig {
			for k, phi := range a.angles {
				a.sinPhi[k], a.cosPhi[k] = mathx.FastSincos(phi)
			}
		} else {
			for k, phi := range a.angles {
				a.sinPhi[k], a.cosPhi[k] = math.Sincos(phi)
			}
		}
	case a.nAz >= planMinN:
		planCache.fill(a.sinPhi, a.cosPhi, planKey{i0: 0, n: a.nAz, step: a.step, fast: a.fastTrig})
	default:
		buildUniformTrig(a.sinPhi, a.cosPhi, 0, a.step, a.fastTrig)
	}
	a.cosG = make([]float64, a.nPol)
	for r := range a.cosG {
		// Same expression chain as the batch row scan: γ = polBase +
		// row·polStep (0 in 2D), then cos γ.
		a.cosG[r] = math.Cos(a.polBase + float64(r)*a.polStep)
	}

	switch {
	case kind != KindR:
		a.qRe = make([]float64, a.n)
		a.qIm = make([]float64, a.n)
	case p.LiteralReference:
		a.refAper = make([]float64, a.n)
		a.wRe = make([]float64, a.n)
		a.wIm = make([]float64, a.n)
	default:
		a.refAper = make([]float64, a.n)
		a.resSin = make([]float64, a.n)
		a.resCos = make([]float64, a.n)
	}
	return a, nil
}

// Snapshots returns how many snapshots have been folded in.
func (a *Accumulator) Snapshots() int { return len(a.terms) }

// accAddChunk adapts the in-flight Add fold to sched.Chunked without an
// allocation per Add.
type accAddChunk Accumulator

// RunChunk implements sched.Chunked for a chunked Add fold.
func (c *accAddChunk) RunChunk(lo, hi int) { (*Accumulator)(c).foldRange(lo, hi) }

// addChunkMin is the grid width below which Add folds inline: narrow grids
// finish faster than a pool round-trip.
const addChunkMin = 4 * chunkTarget

// Add folds one snapshot into the per-cell sums. The first snapshot becomes
// the session's phase reference, exactly like prepare. Snapshots must
// arrive in the order the batch path would sort them (ascending time) for
// the exact path to stay bit-identical to batch — the caller owns that
// guarantee (core.Stream checks it and falls back to batch otherwise).
func (a *Accumulator) Add(s phase.Snapshot) error {
	if !a.haveRef {
		a.ref = s
		a.haveRef = true
	}
	t, err := makeTerm(s, a.ref, a.params)
	if err != nil {
		return fmt.Errorf("spectrum: snapshot %d %w", len(a.terms), err)
	}
	a.ev = nil
	a.pending = t
	if len(a.terms) == 0 && a.refAper != nil {
		// Capture the reference aperture per cell once: it is a pure
		// function of the first term and the cell, recomputed identically
		// by evalRExact/evalRFast on every batch call.
		for k := 0; k < a.n; k++ {
			az, cg := a.cell(k)
			a.refAper[k] = t.scale * (t.cosA*a.cosPhi[az] + t.sinA*a.sinPhi[az]) * cg
		}
	}
	a.terms = append(a.terms, t)
	if a.n >= addChunkMin && sched.Workers() > 1 {
		// Chunks write disjoint cell ranges; order never enters the
		// arithmetic (each cell's sum gets exactly one contribution per
		// Add), so pooled and inline folds are bit-identical.
		_ = sched.Run(context.Background(), (*accAddChunk)(a), a.n, chunkTarget)
	} else {
		a.foldRange(0, a.n)
	}
	return nil
}

// cell resolves a cell index to its azimuth-table index and cos γ.
func (a *Accumulator) cell(k int) (az int, cg float64) {
	if a.nPol == 1 {
		return k, a.cosG[0]
	}
	return k % a.nAz, a.cosG[k/a.nAz]
}

// foldRange folds the pending term into cells [lo, hi). Each branch mirrors
// the expression shapes of its batch counterpart (evalQExact/evalQFast,
// evalRExact/evalRFast) so exact-path sums match bit for bit.
func (a *Accumulator) foldRange(lo, hi int) {
	t := a.pending
	switch {
	case a.kind != KindR:
		a.foldQ(t, lo, hi)
	case a.params.LiteralReference:
		a.foldRLiteral(t, lo, hi)
	default:
		a.foldRRobust(t, lo, hi)
	}
}

func (a *Accumulator) foldQ(t snapshotTerm, lo, hi int) {
	if a.nPol == 1 {
		a.foldQ2D(t, lo, hi)
		return
	}
	if a.fastTrig {
		for k := lo; k < hi; k++ {
			az, cg := a.cell(k)
			aperture := t.scale * (t.cosA*a.cosPhi[az] + t.sinA*a.sinPhi[az]) * cg
			s, c := mathx.FastSincos(t.relPhase + aperture)
			a.qRe[k] += c
			a.qIm[k] += s
		}
		return
	}
	for k := lo; k < hi; k++ {
		az, cg := a.cell(k)
		aperture := t.scale * (t.cosA*a.cosPhi[az] + t.sinA*a.sinPhi[az]) * cg
		s, c := math.Sincos(t.relPhase + aperture)
		a.qRe[k] += c
		a.qIm[k] += s
	}
}

// foldQ2D is the single-polar-row specialization of foldQ: the cell →
// (azimuth, cos γ) mapping collapses to the identity, so the per-cell
// branch, division and modulo hoist out of the loop, and reslicing every
// table to the [lo,hi) window retires the bounds checks. The folded
// expression is byte-for-byte the generic one — exact-path sums keep their
// batch bits.
func (a *Accumulator) foldQ2D(t snapshotTerm, lo, hi int) {
	cg := a.cosG[0]
	cosPhi := a.cosPhi[lo:hi]
	sinPhi := a.sinPhi[lo:hi]
	qRe := a.qRe[lo:hi]
	qIm := a.qIm[lo:hi]
	if a.fastTrig {
		for i := range cosPhi {
			aperture := t.scale * (t.cosA*cosPhi[i] + t.sinA*sinPhi[i]) * cg
			s, c := mathx.FastSincos(t.relPhase + aperture)
			qRe[i] += c
			qIm[i] += s
		}
		return
	}
	for i := range cosPhi {
		aperture := t.scale * (t.cosA*cosPhi[i] + t.sinA*sinPhi[i]) * cg
		s, c := math.Sincos(t.relPhase + aperture)
		qRe[i] += c
		qIm[i] += s
	}
}

// foldRLiteral streams the literal-reference R sums completely: with μ ≡ 0
// the weight depends only on the snapshot's own residual, and res−μ is
// bitwise res (x−0.0 == x for every float64), so the streamed weight equals
// the batch weighting-pass weight.
func (a *Accumulator) foldRLiteral(t snapshotTerm, lo, hi int) {
	if a.nPol == 1 {
		a.foldRLiteral2D(t, lo, hi)
		return
	}
	if a.fastTrig {
		for k := lo; k < hi; k++ {
			az, cg := a.cell(k)
			aperture := t.scale * (t.cosA*a.cosPhi[az] + t.sinA*a.sinPhi[az]) * cg
			res := wrapToPiFast(t.relPhase - (a.refAper[k] - aperture))
			d := wrapToPiFast(res)
			w := a.wNorm * math.Exp(-d*d*a.wInv2Sig)
			s, c := mathx.FastSincos(t.relPhase + aperture)
			a.wRe[k] += w * c
			a.wIm[k] += w * s
		}
		return
	}
	for k := lo; k < hi; k++ {
		az, cg := a.cell(k)
		aperture := t.scale * (t.cosA*a.cosPhi[az] + t.sinA*a.sinPhi[az]) * cg
		ci := a.refAper[k] - aperture
		res := mathx.WrapToPi(t.relPhase - ci)
		w := mathx.GaussPDF(mathx.WrapToPi(res), 0, a.weightSigma)
		s, c := math.Sincos(t.relPhase + aperture)
		a.wRe[k] += w * c
		a.wIm[k] += w * s
	}
}

// foldRLiteral2D is the single-polar-row specialization of foldRLiteral;
// see foldQ2D for the restructuring rules.
func (a *Accumulator) foldRLiteral2D(t snapshotTerm, lo, hi int) {
	cg := a.cosG[0]
	cosPhi := a.cosPhi[lo:hi]
	sinPhi := a.sinPhi[lo:hi]
	refAper := a.refAper[lo:hi]
	wRe := a.wRe[lo:hi]
	wIm := a.wIm[lo:hi]
	if a.fastTrig {
		for i := range cosPhi {
			aperture := t.scale * (t.cosA*cosPhi[i] + t.sinA*sinPhi[i]) * cg
			res := wrapToPiFast(t.relPhase - (refAper[i] - aperture))
			d := wrapToPiFast(res)
			w := a.wNorm * math.Exp(-d*d*a.wInv2Sig)
			s, c := mathx.FastSincos(t.relPhase + aperture)
			wRe[i] += w * c
			wIm[i] += w * s
		}
		return
	}
	for i := range cosPhi {
		aperture := t.scale * (t.cosA*cosPhi[i] + t.sinA*sinPhi[i]) * cg
		ci := refAper[i] - aperture
		res := mathx.WrapToPi(t.relPhase - ci)
		w := mathx.GaussPDF(mathx.WrapToPi(res), 0, a.weightSigma)
		s, c := math.Sincos(t.relPhase + aperture)
		wRe[i] += w * c
		wIm[i] += w * s
	}
}

// foldRRobust streams the robust-R first pass — the residual circular sums
// the per-cell mean μ is taken over.
func (a *Accumulator) foldRRobust(t snapshotTerm, lo, hi int) {
	if a.nPol == 1 {
		a.foldRRobust2D(t, lo, hi)
		return
	}
	if a.fastTrig {
		for k := lo; k < hi; k++ {
			az, cg := a.cell(k)
			aperture := t.scale * (t.cosA*a.cosPhi[az] + t.sinA*a.sinPhi[az]) * cg
			res := wrapToPiFast(t.relPhase - (a.refAper[k] - aperture))
			s, c := mathx.FastSincos(res)
			a.resSin[k] += s
			a.resCos[k] += c
		}
		return
	}
	for k := lo; k < hi; k++ {
		az, cg := a.cell(k)
		aperture := t.scale * (t.cosA*a.cosPhi[az] + t.sinA*a.sinPhi[az]) * cg
		ci := a.refAper[k] - aperture
		res := mathx.WrapToPi(t.relPhase - ci)
		s, c := math.Sincos(res)
		a.resSin[k] += s
		a.resCos[k] += c
	}
}

// foldRRobust2D is the single-polar-row specialization of foldRRobust; see
// foldQ2D for the restructuring rules.
func (a *Accumulator) foldRRobust2D(t snapshotTerm, lo, hi int) {
	cg := a.cosG[0]
	cosPhi := a.cosPhi[lo:hi]
	sinPhi := a.sinPhi[lo:hi]
	refAper := a.refAper[lo:hi]
	resSin := a.resSin[lo:hi]
	resCos := a.resCos[lo:hi]
	if a.fastTrig {
		for i := range cosPhi {
			aperture := t.scale * (t.cosA*cosPhi[i] + t.sinA*sinPhi[i]) * cg
			res := wrapToPiFast(t.relPhase - (refAper[i] - aperture))
			s, c := mathx.FastSincos(res)
			resSin[i] += s
			resCos[i] += c
		}
		return
	}
	for i := range cosPhi {
		aperture := t.scale * (t.cosA*cosPhi[i] + t.sinA*sinPhi[i]) * cg
		ci := refAper[i] - aperture
		res := mathx.WrapToPi(t.relPhase - ci)
		s, c := math.Sincos(res)
		resSin[i] += s
		resCos[i] += c
	}
}

// Evaluator returns the full-term batch engine over the accumulated
// snapshots, for refinement rounds and rescoring. It is (re)built lazily
// after the last Add.
func (a *Accumulator) Evaluator() (*Evaluator, error) {
	if len(a.terms) < 2 {
		return nil, fmt.Errorf("spectrum: need ≥2 snapshots, have %d", len(a.terms))
	}
	if a.ev == nil {
		a.ev = newEvaluatorFromTerms(a.terms, a.params, a.kind, a.evalOpts...)
	}
	return a.ev, nil
}

// accFinishChunk adapts the finalize finishing pass to sched.Chunked.
type accFinishChunk struct {
	a   *Accumulator
	out []float64
}

// RunChunk implements sched.Chunked for the chunked finishing pass.
func (c *accFinishChunk) RunChunk(lo, hi int) { c.a.finishRange(c.out, lo, hi) }

// finish computes the per-cell profile values from the accumulated sums
// into out, chunking wide grids through the shared pool. The robust-R
// branch is the expensive one (one weighting pass over all terms per cell);
// Q and literal-R are O(1) per cell.
func (a *Accumulator) finish(out []float64) {
	heavy := a.kind == KindR && !a.params.LiteralReference
	if (heavy || a.n >= addChunkMin) && sched.Workers() > 1 {
		c := accFinishChunk{a: a, out: out}
		_ = sched.Run(context.Background(), &c, a.n, chunkTarget)
		return
	}
	a.finishRange(out, 0, a.n)
}

// finishRange finishes cells [lo, hi). Every expression mirrors the tail of
// its batch kernel: Q divides the phasor magnitude by n exactly like
// evalRowQ, and robust R replays evalRExact's weighting pass with the
// streamed circular sums substituted for the batch-recomputed ones (they
// are the same bits — same contributions, same order).
func (a *Accumulator) finishRange(out []float64, lo, hi int) {
	nTerms := len(a.terms)
	switch {
	case a.kind != KindR:
		if a.fastTrig {
			inv := 1 / float64(nTerms)
			for k := lo; k < hi; k++ {
				out[k] = math.Sqrt(a.qRe[k]*a.qRe[k]+a.qIm[k]*a.qIm[k]) * inv
			}
			return
		}
		for k := lo; k < hi; k++ {
			out[k] = math.Hypot(a.qRe[k], a.qIm[k]) / float64(nTerms)
		}
	case a.params.LiteralReference:
		if a.fastTrig {
			for k := lo; k < hi; k++ {
				out[k] = math.Sqrt(a.wRe[k]*a.wRe[k]+a.wIm[k]*a.wIm[k]) / float64(nTerms)
			}
			return
		}
		for k := lo; k < hi; k++ {
			out[k] = math.Hypot(a.wRe[k], a.wIm[k]) / float64(nTerms)
		}
	default:
		for k := lo; k < hi; k++ {
			out[k] = a.finishRobustCell(k)
		}
	}
}

// finishRobustCell runs the robust-R weighting pass for one cell, using the
// streamed circular sums for μ.
func (a *Accumulator) finishRobustCell(k int) float64 {
	az, cg := a.cell(k)
	cosPhi, sinPhi := a.cosPhi[az], a.sinPhi[az]
	refAperture := a.refAper[k]
	mu := math.Atan2(a.resSin[k], a.resCos[k])
	var sumRe, sumIm float64
	if a.fastTrig {
		for _, t := range a.terms {
			aperture := t.scale * (t.cosA*cosPhi + t.sinA*sinPhi) * cg
			res := wrapToPiFast(t.relPhase - (refAperture - aperture))
			d := wrapToPiFast(res - mu)
			w := a.wNorm * math.Exp(-d*d*a.wInv2Sig)
			s, c := mathx.FastSincos(t.relPhase + aperture)
			sumRe += w * c
			sumIm += w * s
		}
		return math.Sqrt(sumRe*sumRe+sumIm*sumIm) / float64(len(a.terms))
	}
	for _, t := range a.terms {
		aperture := t.scale * (t.cosA*cosPhi + t.sinA*sinPhi) * cg
		ci := refAperture - aperture
		res := mathx.WrapToPi(t.relPhase - ci)
		w := mathx.GaussPDF(mathx.WrapToPi(res-mu), 0, a.weightSigma)
		s, c := math.Sincos(t.relPhase + aperture)
		sumRe += w * c
		sumIm += w * s
	}
	return math.Hypot(sumRe, sumIm) / float64(len(a.terms))
}

// CoarseProfile returns the accumulated 2D profile over the uniform coarse
// grid (angles φ_i = i·step). Exact-trig values are bit-identical to
// Evaluator.Profile2D over the same angles and full term set.
func (a *Accumulator) CoarseProfile() (Profile, error) {
	if a.threeD {
		return Profile{}, fmt.Errorf("spectrum: 3D accumulator has no 2D profile")
	}
	if len(a.terms) < 2 {
		return Profile{}, fmt.Errorf("spectrum: need ≥2 snapshots, have %d", len(a.terms))
	}
	prof := Profile{
		Angles: make([]float64, a.n),
		Power:  make([]float64, a.n),
	}
	if a.angles != nil {
		copy(prof.Angles, a.angles)
	} else {
		for i := range prof.Angles {
			prof.Angles[i] = float64(i) * a.step
		}
	}
	a.finish(prof.Power)
	return prof, nil
}

// CoarseProfile3D is CoarseProfile over the az × polar grid.
func (a *Accumulator) CoarseProfile3D() (Profile3D, error) {
	if !a.threeD {
		return Profile3D{}, fmt.Errorf("spectrum: 2D accumulator has no 3D profile")
	}
	if len(a.terms) < 2 {
		return Profile3D{}, fmt.Errorf("spectrum: need ≥2 snapshots, have %d", len(a.terms))
	}
	azimuths := make([]float64, a.nAz)
	for i := range azimuths {
		azimuths[i] = float64(i) * a.step
	}
	polars := make([]float64, a.nPol)
	for i := range polars {
		polars[i] = a.polBase + float64(i)*a.polStep
	}
	prof := newProfile3D(azimuths, polars)
	flat := make([]float64, a.n)
	a.finish(flat)
	for i := range prof.Power {
		copy(prof.Power[i], flat[i*a.nAz:(i+1)*a.nAz])
	}
	return prof, nil
}

// coarseArgmaxAccum picks the coarse winner from the accumulated sums with
// the batch argmax rule — strict > with the lowest index winning ties — so
// the expensive grid scan the batch path runs after the session is already
// paid for. Every batch route returns the dense scan's cell, which is what
// these sums score.
func (a *Accumulator) coarseArgmaxAccum() int {
	vals := make([]float64, a.n)
	a.finish(vals)
	best, bestVal := 0, math.Inf(-1)
	for k, v := range vals {
		if v > bestVal {
			best, bestVal = k, v
		}
	}
	return best
}

// BatchFallback reports whether FindPeak2D/FindPeak3D will run the batch
// search instead of serving the coarse pass from the streamed sums: past
// coarseTermLimit snapshots the batch coarse pass scores a strided subset
// that no streaming fold can reproduce.
func (a *Accumulator) BatchFallback() bool { return len(a.terms) > coarseTermLimit }

// FindPeak2D finalizes the accumulated session into the refined 2D peak,
// running the same refinement rounds (on the same full-term Evaluator
// machinery) as the batch FindPeak2DEval. The result is bit-identical to
// the batch search for every session: up to coarseTermLimit snapshots the
// streamed sums ARE the batch coarse scan (the strided subset is the full
// set), and beyond that — where the batch coarse pass scores only the
// strided subset, which no streaming pass can reproduce because the stride
// depends on the final count — the finalize falls back to the batch search
// itself, trading the streamed head start for the guarantee.
func (a *Accumulator) FindPeak2D() (float64, float64, error) {
	if a.threeD {
		return 0, 0, fmt.Errorf("spectrum: 3D accumulator cannot run a 2D peak search")
	}
	ev, err := a.Evaluator()
	if err != nil {
		return 0, 0, err
	}
	if a.BatchFallback() {
		if a.angles != nil {
			az, pow := FindPeak2DAnglesEval(ev, a.angles, a.opts)
			return az, pow, nil
		}
		az, pow := FindPeak2DEval(ev, a.opts)
		return az, pow, nil
	}
	idx := a.coarseArgmaxAccum()
	base := float64(idx) * a.step
	if a.angles != nil {
		base = a.angles[idx]
	}
	az, pow := ev.refine2D(base, a.step, a.opts)
	return az, pow, nil
}

// FindPeak3D is FindPeak2D over the az × polar grid, with the same
// bit-identity contract (including the batch fallback past coarseTermLimit).
func (a *Accumulator) FindPeak3D() (Peak3D, error) {
	if !a.threeD {
		return Peak3D{}, fmt.Errorf("spectrum: 2D accumulator cannot run a 3D peak search")
	}
	ev, err := a.Evaluator()
	if err != nil {
		return Peak3D{}, err
	}
	if a.BatchFallback() {
		return FindPeak3DEval(ev, a.opts), nil
	}
	idx := a.coarseArgmaxAccum()
	best := Peak3D{
		Azimuth: float64(idx%a.nAz) * a.step,
		Polar:   a.polBase + float64(idx/a.nAz)*a.polStep,
	}
	return ev.refine3D(best, a.step, a.polStep, a.opts), nil
}
