package spectrum

import (
	"fmt"
	"math"

	"github.com/tagspin/tagspin/internal/mathx"
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

// sigma returns the effective noise parameter.
func (p VerticalParams) sigma() float64 {
	if p.Sigma <= 0 {
		return DefaultSigma
	}
	return p.Sigma
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

// verticalTerm caches per-snapshot quantities for the vertical aperture.
type verticalTerm struct {
	relPhase float64 // θ_i − θ_1, wrapped
	cosA     float64 // cos of the disk angle
	sinA     float64 // sin of the disk angle
	scale    float64 // 4π r / λ_i
}

// prepareVertical converts snapshots into cached terms.
func prepareVertical(snaps []phase.Snapshot, p VerticalParams) ([]verticalTerm, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(snaps) < 2 {
		return nil, fmt.Errorf("spectrum: need ≥2 snapshots, have %d", len(snaps))
	}
	ref := snaps[0]
	terms := make([]verticalTerm, len(snaps))
	for i, s := range snaps {
		if s.FrequencyHz <= 0 {
			return nil, fmt.Errorf("spectrum: snapshot %d has no carrier frequency", i)
		}
		a := p.Disk.Angle(s.Time)
		terms[i] = verticalTerm{
			relPhase: mathx.WrapToPi(s.Phase - ref.Phase),
			cosA:     math.Cos(a),
			sinA:     math.Sin(a),
			scale:    4 * math.Pi * p.Disk.Radius / s.Wavelength(),
		}
	}
	return terms, nil
}

// evalVertical computes the selected power formula for the vertical
// aperture at candidate direction (phi, gamma).
func evalVertical(terms []verticalTerm, kind Kind, sigma float64, literalRef bool, planeAz, phi, gamma float64) float64 {
	cg, sg := math.Cos(gamma), math.Sin(gamma)
	inPlane := cg * math.Cos(phi-planeAz)
	aperture := func(t verticalTerm) float64 {
		return t.scale * (t.cosA*inPlane + t.sinA*sg)
	}
	refAperture := aperture(terms[0])
	var sum complex128
	if kind != KindR {
		for _, t := range terms {
			sum += complexRect(1, t.relPhase+aperture(t))
		}
		return complexAbs(sum) / float64(len(terms))
	}
	residuals := make([]float64, len(terms))
	apertures := make([]float64, len(terms))
	var rs, rc float64
	for i, t := range terms {
		ap := aperture(t)
		apertures[i] = ap
		res := mathx.WrapToPi(t.relPhase - (refAperture - ap))
		residuals[i] = res
		rs += math.Sin(res)
		rc += math.Cos(res)
	}
	var weightSigma, mu float64
	if literalRef {
		weightSigma = sigma * math.Sqrt2
	} else {
		weightSigma = math.Hypot(sigma, modelResidualSigma)
		mu = math.Atan2(rs, rc)
	}
	for i, res := range residuals {
		w := mathx.GaussPDF(mathx.WrapToPi(res-mu), 0, weightSigma)
		sum += complexRect(w, terms[i].relPhase+apertures[i])
	}
	return complexAbs(sum) / float64(len(terms))
}

// complexRect and complexAbs are local shims so this file reads like its
// horizontal sibling without re-importing math/cmplx under an alias.
func complexRect(r, theta float64) complex128 {
	return complex(r*math.Cos(theta), r*math.Sin(theta))
}

func complexAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// ResolveMirror decides the sign of a horizontal-disk polar estimate using
// a vertical disk's signed peak: it returns +|polar| when the vertical
// disk's profile scores the +γ candidate at least as high as the −γ one,
// and −|polar| otherwise.
func ResolveMirror(snaps []phase.Snapshot, p VerticalParams, kind Kind, azimuth, polarMagnitude float64) (float64, error) {
	terms, err := prepareVertical(snaps, p)
	if err != nil {
		return 0, err
	}
	sigma := p.sigma()
	up := evalVertical(terms, kind, sigma, p.LiteralReference, p.Disk.PlaneAzimuth, azimuth, math.Abs(polarMagnitude))
	down := evalVertical(terms, kind, sigma, p.LiteralReference, p.Disk.PlaneAzimuth, azimuth, -math.Abs(polarMagnitude))
	if up >= down {
		return math.Abs(polarMagnitude), nil
	}
	return -math.Abs(polarMagnitude), nil
}
