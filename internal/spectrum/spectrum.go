// Package spectrum implements §IV and §V-B of the paper: the angle spectrum
// of a spinning tag. Given the phase snapshots of one rotation session and
// the disk geometry, it computes
//
//   - Q(φ), Q(φ,γ): the traditional relative-phasor AoA power profile
//     (Eqn. 7 and Eqn. 11), and
//   - R(φ), R(φ,γ): the paper's enhanced profile (Definitions 4.1 and 5.1)
//     that weights every snapshot by the Gaussian likelihood of its measured
//     relative phase under the candidate direction, sharpening the peak and
//     suppressing false candidates,
//
// plus coarse-to-fine peak search and profile-quality metrics used by the
// Fig. 6 / Fig. 8 experiments.
package spectrum

import (
	"errors"
	"fmt"
	"math"

	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
)

// DefaultSigma is the per-read phase noise standard deviation assumed by the
// R-profile weights (0.1 rad on COTS readers, per the paper).
const DefaultSigma = 0.1

// modelResidualSigma is the structured-residual allowance folded into the
// robust R-weight kernel (in quadrature with the thermal σ): far-field
// approximation error, orientation-calibration residue, mild multipath.
const modelResidualSigma = 0.15

// Params configures profile computation for one spinning tag.
type Params struct {
	// Disk is the nominal disk geometry from the registry.
	Disk spindisk.Disk
	// Sigma is the assumed phase-noise σ for the R weights. Zero means
	// DefaultSigma.
	Sigma float64
	// LiteralReference computes the R weights exactly as Definition 4.1
	// writes them: residuals against the first snapshot with σ·√2. That
	// form inherits the reference snapshot's own noise ε₁ into every
	// weight, which tilts the argmax by up to ≈ε₁/(4πr/λ) — over a
	// degree for σ = 0.1 rad. The default (false) removes the common
	// offset — the circular mean of the residuals — before weighting,
	// which cancels ε₁ while preserving the discriminative weighting.
	// Ablation A6 quantifies the difference.
	LiteralReference bool
}

// sigma returns the effective noise parameter.
func (p Params) sigma() float64 {
	if p.Sigma <= 0 {
		return DefaultSigma
	}
	return p.Sigma
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Disk.Validate(); err != nil {
		return err
	}
	if p.Disk.Radius == 0 {
		return fmt.Errorf("spectrum: zero disk radius gives no aperture")
	}
	if p.Sigma < 0 {
		return fmt.Errorf("spectrum: negative sigma")
	}
	return nil
}

// Kind selects which power formula a profile uses.
type Kind int

const (
	// KindQ is the traditional profile Q (Eqn. 7 / 11).
	KindQ Kind = iota + 1
	// KindR is the enhanced profile R (Definitions 4.1 / 5.1).
	KindR
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindQ:
		return "Q"
	case KindR:
		return "R"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Profile is a sampled 2D angle spectrum.
type Profile struct {
	// Angles are the candidate azimuths φ in [0, 2π).
	Angles []float64
	// Power holds the (non-negative) profile values, parallel to Angles.
	Power []float64
}

// Profile3D is a sampled 3D angle spectrum over azimuth × polar angle.
type Profile3D struct {
	// Azimuths are the candidate azimuths φ in [0, 2π).
	Azimuths []float64
	// Polars are the candidate polar angles γ in [-π/2, π/2].
	Polars []float64
	// Power[i][j] is the profile value at (Polars[i], Azimuths[j]).
	Power [][]float64
}

// errNoFrequency reports a snapshot without a carrier frequency; every
// termSlices.add caller wraps it with the snapshot's position.
var errNoFrequency = errors.New("has no carrier frequency")

// prepare converts snapshots into cached terms, carved from buf when it
// holds 4·len(snaps) floats so a caller that prepares session after
// session can reuse one array. It requires at least two snapshots; the
// first one is the phase reference that cancels θ_div.
func prepare(buf []float64, snaps []phase.Snapshot, p Params) (termSlices, error) {
	if err := p.Validate(); err != nil {
		return termSlices{}, err
	}
	if len(snaps) < 2 {
		return termSlices{}, fmt.Errorf("spectrum: need ≥2 snapshots, have %d", len(snaps))
	}
	terms := newTermSlices(buf, len(snaps))
	for i, s := range snaps {
		if err := terms.add(s, snaps[0], p.Disk.Angle(s.Time), p.Disk.Radius); err != nil {
			return termSlices{}, fmt.Errorf("spectrum: snapshot %d %w", i, err)
		}
	}
	return terms, nil
}

// Compute2D evaluates a 2D profile of the given kind over the angle grid,
// in parallel across the grid (see Evaluator for the engine).
func Compute2D(snaps []phase.Snapshot, p Params, kind Kind, angles []float64) (Profile, error) {
	ev, err := NewEvaluator(snaps, p, kind)
	if err != nil {
		return Profile{}, err
	}
	return ev.Profile2D(angles), nil
}

// Compute3D evaluates a 3D profile of the given kind over the az × polar
// grid, in parallel across grid rows (see Evaluator for the engine).
func Compute3D(snaps []phase.Snapshot, p Params, kind Kind, azimuths, polars []float64) (Profile3D, error) {
	ev, err := NewEvaluator(snaps, p, kind)
	if err != nil {
		return Profile3D{}, err
	}
	return ev.Profile3D(azimuths, polars), nil
}

// UniformAngles returns n candidate azimuths evenly covering [0, 2π).
func UniformAngles(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2 * math.Pi * float64(i) / float64(n)
	}
	return out
}

// Peak returns the grid argmax of a 2D profile. Ties — including the
// degenerate all-zero profile — resolve to the first grid point, so the
// returned angle is always one of Angles; an empty profile reports zeros.
func (p Profile) Peak() (angle, power float64) {
	if len(p.Power) == 0 {
		return 0, 0
	}
	best := 0
	for i, v := range p.Power {
		if v > p.Power[best] {
			best = i
		}
	}
	return p.Angles[best], p.Power[best]
}

// Peak returns the grid argmax of a 3D profile. Ties — including the
// degenerate all-zero profile — resolve to the first grid point, so the
// returned angles are always on the grid; an empty profile reports zeros.
func (p Profile3D) Peak() (azimuth, polar, power float64) {
	bi, bj := -1, 0
	for i, row := range p.Power {
		for j, v := range row {
			if bi < 0 || v > p.Power[bi][bj] {
				bi, bj = i, j
			}
		}
	}
	if bi < 0 {
		return 0, 0, 0
	}
	return p.Azimuths[bj], p.Polars[bi], p.Power[bi][bj]
}
