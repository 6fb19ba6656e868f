package spectrum

import (
	"fmt"
	"math"

	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
)

// This file implements the paper's future-work extension (§V-B): a third
// spinning tag whose disk rotates in a *vertical* plane. For a tag whose
// rim offset from the disk center at time t is the vector o(t), the
// far-field distance to a reader in direction û is d(t) ≈ D − o(t)·û. A
// horizontal disk gives o·û = r·cos(a−φ)·cos γ, which is even in γ — hence
// the mirror ambiguity. A vertical disk in the plane spanned by the
// horizontal direction ψ and the z axis gives
//
//	o·û = r·(cos a · cos γ · cos(φ−ψ) + sin a · sin γ),
//
// which is NOT even in γ: its spectrum distinguishes +γ from −γ and
// resolves the ambiguity.

// VerticalParams configures profile computation for a vertically spinning
// tag.
type VerticalParams struct {
	// Disk is the nominal vertical-disk geometry.
	Disk spindisk.VerticalDisk
	// Sigma is the assumed phase-noise σ for the R weights. Zero means
	// DefaultSigma.
	Sigma float64
	// LiteralReference selects the Definition 4.1 weight form (see
	// Params.LiteralReference).
	LiteralReference bool
}

// Validate checks the parameters.
func (p VerticalParams) Validate() error {
	if p.Disk.Radius <= 0 {
		return fmt.Errorf("spectrum: vertical disk radius %v", p.Disk.Radius)
	}
	if p.Disk.Omega == 0 {
		return fmt.Errorf("spectrum: vertical disk zero angular velocity")
	}
	if p.Sigma < 0 {
		return fmt.Errorf("spectrum: negative sigma")
	}
	return nil
}

// newVerticalEvaluator prepares snaps for the vertical aperture: the same
// terms prepare builds, at the vertical disk's angle, on an Evaluator whose
// exact kernel scores them through verticalAt.
func newVerticalEvaluator(snaps []phase.Snapshot, p VerticalParams, kind Kind) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(snaps) < 2 {
		return nil, fmt.Errorf("spectrum: need ≥2 snapshots, have %d", len(snaps))
	}
	terms := newTermSlices(nil, len(snaps))
	for i, s := range snaps {
		if err := terms.add(s, snaps[0], p.Disk.Angle(s.Time), p.Disk.Radius); err != nil {
			return nil, fmt.Errorf("spectrum: snapshot %d %w", i, err)
		}
	}
	return newEvaluatorFromTerms(terms, Params{Sigma: p.Sigma, LiteralReference: p.LiteralReference}, kind), nil
}

// verticalAt scores the vertical aperture of plane azimuth psi at candidate
// direction (phi, gamma) with the horizontal disk's exact kernel: its
// aperture factor cos a·cos φ + sin a·sin φ, at sin φ := sin γ,
// cos φ := cos γ·cos(φ−ψ) and unit cos γ, is the vertical o·û/r.
func (e *Evaluator) verticalAt(sc *Scratch, psi, phi, gamma float64) float64 {
	return e.evalCell(e.terms, sc, math.Sin(gamma), math.Cos(gamma)*math.Cos(phi-psi), 1)
}

// ResolveMirror decides the sign of a horizontal-disk polar estimate using
// a vertical disk's signed peak: it returns +|polar| when the vertical
// disk's profile scores the +γ candidate at least as high as the −γ one,
// and −|polar| otherwise.
func ResolveMirror(snaps []phase.Snapshot, p VerticalParams, kind Kind, azimuth, polarMagnitude float64) (float64, error) {
	e, err := newVerticalEvaluator(snaps, p, kind)
	if err != nil {
		return 0, err
	}
	sc := e.NewScratch()
	gamma := math.Abs(polarMagnitude)
	if e.verticalAt(sc, p.Disk.PlaneAzimuth, azimuth, gamma) >= e.verticalAt(sc, p.Disk.PlaneAzimuth, azimuth, -gamma) {
		return gamma, nil
	}
	return -gamma, nil
}
