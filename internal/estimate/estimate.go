// Package estimate implements the joint maximum-likelihood position backend:
// instead of collapsing each spinning tag's angle spectrum to a single peak
// and intersecting bearing lines (§V, the grid backend), it searches the
// reader position (x, y[, z]) directly and scores every candidate by the
// joint phase likelihood across *all* disks at once. Each disk's Q profile
// is a coherence measure — Q ≈ exp(−s²/2) for residual phase variance s² —
// so n·log Q is, up to a constant, the Gaussian log-likelihood of that
// disk's phase residuals, and summing over disks fuses the full shape of
// every spectrum rather than just its argmax.
//
// The search is seeded by the existing bearing solve and refined by
// Nelder–Mead; the Hessian of the negative log-likelihood at the optimum
// yields a position covariance and 1σ confidence ellipse. In 3D, both ±z
// mirror candidates (§V-B) are refined and the ambiguity is resolved by
// likelihood instead of policy: disks at different heights break the mirror
// symmetry, and the margin between the two likelihoods is reported.
package estimate

import (
	"fmt"
	"math"

	"github.com/tagspin/tagspin/internal/antenna"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locate"
	"github.com/tagspin/tagspin/internal/spectrum"
)

// qFloor clips the per-disk profile value before the log so a candidate that
// completely decoheres one disk (Q → 1/√n fluctuation floor) contributes a
// large-but-finite penalty instead of −Inf, keeping the refinement surface
// smooth enough for simplex steps and finite differences.
const qFloor = 1e-4

// hessianStep is the central-difference step (meters) for the Hessian at the
// optimum. The likelihood scores folded harmonic coefficients
// (spectrum.QFold), which agree with the exact per-read sum within
// qExactSlack = 1e-9 and measure ~1e-15 (TestQFoldMatchesEvalAt), so 2 mm
// balances truncation against cancellation; it is also well inside the
// several-centimeter scale the likelihood varies on.
const hessianStep = 0.002

// mirrorMargin is the log-likelihood advantage the below-planes mirror
// candidate must show before it overrides the above-planes default. The Q
// profiles are exactly even in the polar angle, so with coplanar disks the
// two refined candidates tie up to optimizer wiggle and a bare comparison
// degenerates to a coin flip — flipping the sign of z on half the solves.
// Disks at distinct heights break the symmetry by far more than this margin
// (hundreds of log-units in the staggered-plane tests), while ties stay well
// under it, so 2 log-units (a ~7× likelihood ratio, the usual "substantial
// evidence" line) cleanly separates the two regimes.
const mirrorMargin = 2.0

// Config tunes the ML backend.
type Config struct {
	// Sigma is the assumed per-read phase noise (radians) that calibrates
	// the likelihood — and therefore the covariance. Zero means
	// spectrum.DefaultSigma.
	Sigma float64
	// Antenna, when non-nil, enables radiation-pattern weighting: the
	// pattern is evaluated from the seed position toward each disk center
	// and disks in the pattern's skirts are down-weighted (they carry less
	// SNR, so their spectra are noisier). Position and Boresight are
	// overridden per solve; only the pattern shape (GainDBi,
	// PatternExponent) is used.
	Antenna *antenna.Antenna
	// MaxIter bounds the Nelder–Mead iterations per refinement; zero
	// means 200.
	MaxIter int
}

// sigma returns the effective phase noise.
func (c Config) sigma() float64 {
	if c.Sigma <= 0 {
		return spectrum.DefaultSigma
	}
	return c.Sigma
}

// maxIter returns the effective iteration bound.
func (c Config) maxIter() int {
	if c.MaxIter <= 0 {
		return 200
	}
	return c.MaxIter
}

// ML is the joint maximum-likelihood estimator. It implements
// core.Estimator; construct with NewML and plug into core.Config.Estimator
// or Locator.WithEstimator. The zero Config is a good default.
type ML struct {
	cfg Config
}

// NewML builds the backend.
func NewML(cfg Config) *ML { return &ML{cfg: cfg} }

// Name implements core.Estimator.
func (*ML) Name() string { return "ml" }

// sceneSet is the structure-of-arrays layout of the per-disk likelihood
// inputs: disk centers split into coordinate slices, fusion weights, and
// each disk's folded Q profile in a parallel array. The scoring loops run
// thousands of times per solve (every simplex trial and Hessian probe walks
// all disks), so the hot fields live in flat float64 slices the loop can
// stream with the bounds checks retired — the same layout rule the spectrum
// package applies to its term set.
//
// Every read of every disk stays in the likelihood, but each disk's reads
// are folded once per solve into ~24 harmonic coefficients
// (spectrum.QFold), so a likelihood call costs O(harmonics) per disk
// instead of a sincos per read. The folded profile agrees with the exact
// per-read sum within qExactSlack = 1e-9 (measured ~1e-15;
// TestQFoldMatchesEvalAt pins it). That is what the finite-difference
// Hessian needs: a kernel with ~1e-6 profile noise would be far below any
// physical effect but would dominate its 4h² denominator.
type sceneSet struct {
	cx, cy, cz []float64 // disk centers, one coordinate per slice
	w          []float64 // fusion weight per disk
	qs         []*spectrum.QFold
}

// release returns the folds' buffers to their pool.
func (s *sceneSet) release() {
	for _, q := range s.qs {
		q.Release()
	}
}

// scenes folds the Q profiles of the live tags (Power > 0; dead tags carry
// no directional evidence, mirroring the grid backend's filter). The caller
// releases the set when the solve is done.
func (m *ML) scenes(tags []core.EstimatorTag) (*sceneSet, []core.EstimatorTag, error) {
	live := make([]core.EstimatorTag, 0, len(tags))
	for _, t := range tags {
		if t.Est.Power > 0 && len(t.Snaps) > 0 {
			live = append(live, t)
		}
	}
	if len(live) < 2 {
		return nil, nil, fmt.Errorf("estimate: only %d of %d tags have a usable spectrum and snapshots: %w",
			len(live), len(tags), locate.ErrTooFewBearings)
	}
	sigma := m.cfg.sigma()
	n := len(live)
	coords := make([]float64, 4*n) // one backing array for cx/cy/cz/w
	set := &sceneSet{
		cx: coords[0*n : 1*n],
		cy: coords[1*n : 2*n],
		cz: coords[2*n : 3*n],
		w:  coords[3*n : 4*n],
		qs: make([]*spectrum.QFold, 0, n),
	}
	for i, t := range live {
		params := spectrum.Params{Disk: t.Tag.Disk, Sigma: sigma}
		q, err := spectrum.NewQFold(t.Snaps, params)
		if err != nil {
			set.release()
			return nil, nil, fmt.Errorf("estimate: tag %s: %w", t.Tag.EPC, err)
		}
		c := t.Tag.Disk.Center
		set.cx[i], set.cy[i], set.cz[i] = c.X, c.Y, c.Z
		// n/σ²: n·log Q ≈ −½Σ(ε−ε̄)², so dividing by σ² makes the sum the
		// Gaussian log-likelihood kernel −½Σ((ε−ε̄)/σ)². That calibration
		// is what makes the Hessian the Fisher information and the 1σ
		// ellipse contain the truth at the nominal ≈39% rate.
		set.w[i] = float64(len(t.Snaps)) / (sigma * sigma)
		set.qs = append(set.qs, q)
	}
	return set, live, nil
}

// applyPatternWeights scales each scene's weight by the antenna pattern's
// linear gain from the seed position toward that disk, normalized to the
// best-lit disk and floored at 0.05 so no disk is silenced entirely.
func (m *ML) applyPatternWeights(seed geom.Vec3, scenes *sceneSet) {
	if m.cfg.Antenna == nil {
		return
	}
	ant := *m.cfg.Antenna
	ant.Position = seed
	n := len(scenes.w)
	var centroid geom.Vec3
	for i := 0; i < n; i++ {
		centroid = centroid.Add(geom.V3(scenes.cx[i], scenes.cy[i], scenes.cz[i]))
	}
	centroid = centroid.Scale(1 / float64(n))
	ant.Boresight = centroid.Sub(seed).Azimuth()
	gains := make([]float64, n)
	maxGain := math.Inf(-1)
	for i := 0; i < n; i++ {
		gains[i] = math.Pow(10, ant.GainTowards(geom.V3(scenes.cx[i], scenes.cy[i], scenes.cz[i]))/10)
		if gains[i] > maxGain {
			maxGain = gains[i]
		}
	}
	for i := 0; i < n; i++ {
		w := gains[i] / maxGain
		if w < 0.05 {
			w = 0.05
		}
		scenes.w[i] *= w
	}
}

// logL2D is the joint log-likelihood of a planar reader position: the
// candidate's azimuth toward each disk, evaluated on that disk's Q profile
// at γ = 0 (the grid 2D solve makes the same planar assumption).
func logL2D(scenes *sceneSet, p geom.Vec2) float64 {
	cx := scenes.cx
	n := len(cx)
	cy := scenes.cy[:n]
	w := scenes.w[:n]
	qs := scenes.qs[:n]
	var sum float64
	for i := 0; i < n; i++ {
		dx := p.X - cx[i]
		dy := p.Y - cy[i]
		phi := math.Atan2(dy, dx)
		q := qs[i].At(phi, 0)
		if q < qFloor {
			q = qFloor
		}
		sum += w[i] * math.Log(q)
	}
	return sum
}

// logL3D is the joint log-likelihood of a spatial reader position.
func logL3D(scenes *sceneSet, p geom.Vec3) float64 {
	cx := scenes.cx
	n := len(cx)
	cy := scenes.cy[:n]
	cz := scenes.cz[:n]
	w := scenes.w[:n]
	qs := scenes.qs[:n]
	var sum float64
	for i := 0; i < n; i++ {
		dx := p.X - cx[i]
		dy := p.Y - cy[i]
		dz := p.Z - cz[i]
		phi := math.Atan2(dy, dx)
		gamma := math.Atan2(dz, math.Hypot(dx, dy))
		q := qs[i].At(phi, gamma)
		if q < qFloor {
			q = qFloor
		}
		sum += w[i] * math.Log(q)
	}
	return sum
}

// Solve2D implements core.Estimator: seed from the bearing intersection,
// refine (x, y) by Nelder–Mead on the joint likelihood, report the
// covariance from the Hessian at the optimum.
func (m *ML) Solve2D(tags []core.EstimatorTag) (core.Solution2D, error) {
	scenes, live, err := m.scenes(tags)
	if err != nil {
		return core.Solution2D{}, err
	}
	defer scenes.release()
	bearings := make([]locate.Bearing2D, len(live))
	for i, t := range live {
		bearings[i] = locate.Bearing2D{
			Origin:  t.Tag.Disk.Center.XY(),
			Azimuth: t.Est.Azimuth,
			Weight:  t.Est.Power,
		}
	}
	seed, err := locate.Solve2D(bearings)
	if err != nil {
		return core.Solution2D{}, err
	}
	m.applyPatternWeights(geom.V3(seed.X, seed.Y, 0), scenes)

	neg := func(x []float64) float64 { return -logL2D(scenes, geom.V2(x[0], x[1])) }
	s := optPool.Get().(*optScratch)
	defer optPool.Put(s)
	x0 := [2]float64{seed.X, seed.Y}
	var opt [2]float64
	negL := nelderMead(neg, x0[:], opt[:], m.cfg.maxIter(), s)
	pos := geom.V2(opt[0], opt[1])

	conf := &core.Confidence{LogLikelihood: -negL}
	if cov, ok := covariance(neg, opt[:], s); ok {
		conf.Cov[0][0], conf.Cov[0][1] = cov[0][0], cov[0][1]
		conf.Cov[1][0], conf.Cov[1][1] = cov[1][0], cov[1][1]
		fillEllipse(conf)
	}
	return core.Solution2D{Position: pos, Confidence: conf}, nil
}

// Solve3D implements core.Estimator: both ±z mirror candidates from the
// bearing solve are refined independently and the winner is chosen by
// likelihood — the evidence-based resolution of §V-B's ambiguity. The
// below-planes candidate must win by mirrorMargin: with exactly coplanar
// disks the two likelihoods tie (the geometry genuinely cannot distinguish
// the sides) and the above-planes candidate is kept, matching the paper's
// dead-space default.
func (m *ML) Solve3D(tags []core.EstimatorTag) (core.Solution3D, error) {
	scenes, live, err := m.scenes(tags)
	if err != nil {
		return core.Solution3D{}, err
	}
	defer scenes.release()
	bearings := make([]locate.Bearing3D, len(live))
	for i, t := range live {
		bearings[i] = locate.Bearing3D{
			Origin:  t.Tag.Disk.Center,
			Azimuth: t.Est.Azimuth,
			Polar:   t.Est.Polar,
			Weight:  t.Est.Power,
		}
	}
	cands, err := locate.Solve3D(bearings, locate.Options3D{Policy: locate.ZKeepBoth})
	if err != nil {
		return core.Solution3D{}, err
	}
	m.applyPatternWeights(cands[0].Position, scenes)

	neg := func(x []float64) float64 { return -logL3D(scenes, geom.V3(x[0], x[1], x[2])) }
	s := optPool.Get().(*optScratch)
	defer optPool.Put(s)
	type refined struct {
		x    [3]float64 // by value: the simplex lives in the shared scratch
		negL float64
		seed locate.Candidate
	}
	refs := make([]refined, len(cands))
	for i, c := range cands {
		x0 := [3]float64{c.Position.X, c.Position.Y, c.Position.Z}
		refs[i].negL = nelderMead(neg, x0[:], refs[i].x[:], m.cfg.maxIter(), s)
		refs[i].seed = c
	}
	best, mirror := refs[0], refs[1] // refs[0] is the above-planes candidate
	if mirror.negL < best.negL-mirrorMargin {
		best, mirror = mirror, best
	}

	conf := &core.Confidence{
		LogLikelihood:       -best.negL,
		MirrorLogLikelihood: -mirror.negL,
	}
	if cov, ok := covariance(neg, best.x[:], s); ok {
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				conf.Cov[a][b] = cov[a][b]
			}
		}
		conf.SigmaZM = math.Sqrt(cov[2][2])
		fillEllipse(conf)
	}
	return core.Solution3D{
		Position:   geom.V3(best.x[0], best.x[1], best.x[2]),
		Mirror:     geom.V3(mirror.x[0], mirror.x[1], mirror.x[2]),
		ZSpread:    best.seed.ZSpread,
		Confidence: conf,
	}, nil
}

// fillEllipse derives the horizontal 1σ ellipse from the covariance's
// upper-left 2×2 block by eigendecomposition.
func fillEllipse(c *core.Confidence) {
	c11, c22, c12 := c.Cov[0][0], c.Cov[1][1], c.Cov[0][1]
	tr, diff := (c11+c22)/2, (c11-c22)/2
	disc := math.Sqrt(diff*diff + c12*c12)
	lMaj, lMin := tr+disc, tr-disc
	if lMaj < 0 {
		lMaj = 0
	}
	if lMin < 0 {
		lMin = 0
	}
	c.SemiMajorM = math.Sqrt(lMaj)
	c.SemiMinorM = math.Sqrt(lMin)
	c.OrientationRad = 0.5 * math.Atan2(2*c12, c11-c22)
}
