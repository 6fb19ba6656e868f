package spectrum

import (
	"math"
	"slices"
	"sync"

	"github.com/tagspin/tagspin/internal/phase"
)

// QFold is one tag's Q profile folded into harmonic coefficients, for
// callers that score the profile at many off-grid directions — the joint
// maximum-likelihood backend evaluates it at every simplex trial and
// Hessian probe. EvalAt pays one sincos per snapshot per direction; At pays
// O(H) multiply-adds (H ≈ 24 harmonics at the testbed's aperture scale)
// plus one Bessel table per distinct aperture scale when cos γ changes.
//
// The terms are folded once, with every Bessel factor set to 1, into one
// set of unit sums per distinct aperture scale z_k (foldUnitSums' sums,
// grouped by wavelength). At cos γ the coefficients are Σ_k J_m(z_k·cos γ)
// times group k's sums — scaleUnitSums for one scale — and At synthesizes
// the one requested azimuth from them. The coefficients of the last cos γ
// are kept, so a planar caller (γ = 0 throughout) scales once per fold.
//
// At agrees with EvalAt(KindQ) within qExactSlack (TestQFoldMatchesEvalAt);
// the measured difference is ~1e-15. A QFold holds mutable state and must
// be used by one goroutine at a time; Release returns its buffers to a
// pool, after which it must not be used.
type QFold struct {
	terms  []snapshotTerm   // prepare's buffer, kept for reuse
	scales []float64        // distinct aperture scales (one per carrier channel), first-seen order
	units  []harmonicCoeffs // units[k]: unit sums of the terms at scales[k]
	coeffs harmonicCoeffs   // coefficients at cos γ = cg
	bess   []float64        // Bessel table (all ones while folding)
	cg     float64          // cos γ coeffs holds; NaN before the first At
}

var qfoldPool = sync.Pool{New: func() any { return new(QFold) }}

// NewQFold prepares snaps under p, as NewEvaluator does, and folds the
// terms into unit sums. It fails on the inputs NewEvaluator rejects.
func NewQFold(snaps []phase.Snapshot, p Params) (*QFold, error) {
	f := qfoldPool.Get().(*QFold)
	terms, err := prepare(f.terms[:0], snaps, p)
	f.terms = terms
	if err != nil {
		f.Release()
		return nil, err
	}
	f.scales = f.scales[:0]
	for _, t := range terms {
		if !slices.Contains(f.scales, t.scale) {
			f.scales = append(f.scales, t.scale)
		}
	}
	if cap(f.units) < len(f.scales) {
		f.units = append(f.units[:cap(f.units)], make([]harmonicCoeffs, len(f.scales)-cap(f.units))...)
	}
	f.units = f.units[:len(f.scales)]
	for k, z := range f.scales {
		maxM := harmonicsNeeded(z)
		f.units[k].reset(maxM)
		ones := f.ones(maxM + 1)
		for _, t := range terms {
			if t.scale == z {
				f.units[k].foldTerm(t.relPhase, t.cosA, t.sinA, ones)
			}
		}
	}
	f.cg = math.NaN()
	return f, nil
}

// ones returns f.bess resized to n with every entry 1.
func (f *QFold) ones(n int) []float64 {
	if cap(f.bess) < n {
		f.bess = make([]float64, n)
	}
	b := f.bess[:n]
	for i := range b {
		b[i] = 1
	}
	return b
}

// At returns the Q profile at direction (phi, gamma): EvalAt(KindQ) within
// qExactSlack.
func (f *QFold) At(phi, gamma float64) float64 {
	var sinPhi, cosPhi, out [1]float64
	sinPhi[0], cosPhi[0] = math.Sincos(phi)
	cg := math.Cos(gamma)
	if cg < 0 {
		// cos(φ−a)·cos γ = cos(φ+π−a)·|cos γ|: turn the azimuth around so
		// every Bessel table sees w ≥ 0.
		cg = -cg
		sinPhi[0], cosPhi[0] = -sinPhi[0], -cosPhi[0]
	}
	if cg != f.cg {
		f.scaleTo(cg)
	}
	f.coeffs.synthesize(out[:], sinPhi[:], cosPhi[:])
	return out[0]
}

// scaleTo sets f.coeffs to the coefficients at cos γ = cg ≥ 0.
func (f *QFold) scaleTo(cg float64) {
	maxM := 0
	for _, z := range f.scales {
		maxM = max(maxM, harmonicsNeeded(z*cg))
	}
	f.coeffs.reset(maxM)
	for k, z := range f.scales {
		w := z * cg
		nb := harmonicsNeeded(w) + 1
		if cap(f.bess) < nb {
			f.bess = make([]float64, nb)
		}
		bess := f.bess[:nb]
		besselJArray(w, bess)
		f.coeffs.addScaled(&f.units[k], bess)
	}
	f.coeffs.n = len(f.terms)
	f.cg = cg
}

// Release returns f's buffers to the pool. f must not be used afterwards.
func (f *QFold) Release() {
	qfoldPool.Put(f)
}
