package spectrum

import (
	"math"

	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
)

// termSlices holds the prepared snapshot terms — the per-snapshot
// quantities every candidate angle reuses — as contiguous parallel slices.
// The hot evaluation loops iterate all terms for one candidate (or all
// candidates for one term), so each field is a dense sequential stream the
// hardware prefetches trivially and the compiler can keep in vector
// registers for the pure-arithmetic passes (aperture products, harmonic
// synthesis).
type termSlices struct {
	relPhase []float64 // θ_i − θ_1, wrapped to (-π, π]
	cosA     []float64 // cos a_i, a_i the disk angle at t_i
	sinA     []float64 // sin a_i
	scale    []float64 // 4π r / λ_i (the aperture scale, a.k.a. z_i)
}

// newTermSlices returns an empty term set with room for n terms, its four
// slices carved from buf when buf holds 4n floats and from one new array
// otherwise, so a term set stays a single allocation.
func newTermSlices(buf []float64, n int) termSlices {
	if cap(buf) < 4*n {
		buf = make([]float64, 4*n)
	}
	return termSlices{
		relPhase: buf[0*n : 0*n : 1*n],
		cosA:     buf[1*n : 1*n : 2*n],
		sinA:     buf[2*n : 2*n : 3*n],
		scale:    buf[3*n : 3*n : 4*n],
	}
}

// add appends snapshot s's term, relative to the session's phase reference
// ref, for a disk of the given radius at disk angle angle. Every term
// source — the batch prepare, the streaming Accumulator and the vertical
// disk's ResolveMirror — builds its terms here, so their per-snapshot
// arithmetic cannot drift.
func (ts *termSlices) add(s, ref phase.Snapshot, angle, radius float64) error {
	if s.FrequencyHz <= 0 {
		return errNoFrequency
	}
	sinA, cosA := math.Sincos(angle)
	ts.relPhase = append(ts.relPhase, mathx.WrapToPi(s.Phase-ref.Phase))
	ts.cosA = append(ts.cosA, cosA)
	ts.sinA = append(ts.sinA, sinA)
	ts.scale = append(ts.scale, 4*math.Pi*radius/s.Wavelength())
	return nil
}

// clip caps every slice at its length, so appends to ts (a later
// Accumulator.Add) can never reach a term set already handed out.
func (ts termSlices) clip() termSlices {
	n := ts.n()
	return termSlices{
		relPhase: ts.relPhase[:n:n],
		cosA:     ts.cosA[:n:n],
		sinA:     ts.sinA[:n:n],
		scale:    ts.scale[:n:n],
	}
}

// n returns the term count.
func (ts termSlices) n() int { return len(ts.scale) }

// stride subsamples the term set down to at most limit entries, with the
// same stride rule as the historical strideTerms (so coarse subsets are
// unchanged snapshot-for-snapshot).
func (ts termSlices) stride(limit int) termSlices {
	if ts.n() <= limit {
		return ts
	}
	stride := (ts.n() + limit - 1) / limit
	out := newTermSlices(nil, (ts.n()+stride-1)/stride)
	for i := 0; i < ts.n(); i += stride {
		out.relPhase = append(out.relPhase, ts.relPhase[i])
		out.cosA = append(out.cosA, ts.cosA[i])
		out.sinA = append(out.sinA, ts.sinA[i])
		out.scale = append(out.scale, ts.scale[i])
	}
	return out
}

// maxScale returns the largest aperture scale z_i = 4πr/λ_i in the set —
// the maximum angular frequency of the Q phasor sum as a function of the
// candidate azimuth, i.e. its bandwidth bound (each snapshot contributes
// the phasor e^{j(θ_i + z_i cos(φ−a_i))}, whose instantaneous frequency in
// φ is bounded by z_i).
func (ts termSlices) maxScale() float64 {
	var m float64
	for _, z := range ts.scale {
		if z > m {
			m = z
		}
	}
	return m
}

// singleScale returns the aperture scale every term shares, or 0 when the
// set mixes wavelengths or is empty. Channel-filtered sessions — every
// locate the pipeline runs — have one wavelength and hence one scale.
func (ts termSlices) singleScale() float64 {
	if len(ts.scale) == 0 {
		return 0
	}
	z := ts.scale[0]
	for _, s := range ts.scale {
		if s != z {
			return 0
		}
	}
	return z
}
