package spectrum

// termSlices is the struct-of-arrays layout of prepared snapshot terms: the
// same four per-snapshot quantities as snapshotTerm, but split into
// contiguous parallel slices. The hot evaluation loops iterate all terms for
// one candidate (or all candidates for one term); with the AoS layout every
// field access strides 32 bytes, while the SoA layout turns each field into
// a dense sequential stream the hardware prefetches trivially and the
// compiler can keep in vector registers for the pure-arithmetic passes
// (aperture products, harmonic synthesis). Values are copied bit-for-bit
// from the AoS terms, and every loop preserves the original iteration order
// and expression shapes, so the layout change alone cannot move a result.
type termSlices struct {
	relPhase []float64 // θ_i − θ_1, wrapped to (-π, π]
	cosA     []float64 // cos a_i
	sinA     []float64 // sin a_i
	scale    []float64 // 4π r / λ_i (the aperture scale, a.k.a. z_i)
}

// makeTermSlices converts prepared AoS terms into the SoA layout. All four
// slices share one backing array so a term set stays a single allocation.
func makeTermSlices(terms []snapshotTerm) termSlices {
	n := len(terms)
	backing := make([]float64, 4*n)
	ts := termSlices{
		relPhase: backing[0*n : 1*n : 1*n],
		cosA:     backing[1*n : 2*n : 2*n],
		sinA:     backing[2*n : 3*n : 3*n],
		scale:    backing[3*n : 4*n : 4*n],
	}
	for i, t := range terms {
		ts.relPhase[i] = t.relPhase
		ts.cosA[i] = t.cosA
		ts.sinA[i] = t.sinA
		ts.scale[i] = t.scale
	}
	return ts
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
	kept := 0
	for i := 0; i < ts.n(); i += stride {
		kept++
	}
	backing := make([]float64, 4*kept)
	out := termSlices{
		relPhase: backing[0*kept : 1*kept : 1*kept],
		cosA:     backing[1*kept : 2*kept : 2*kept],
		sinA:     backing[2*kept : 3*kept : 3*kept],
		scale:    backing[3*kept : 4*kept : 4*kept],
	}
	k := 0
	for i := 0; i < ts.n(); i += stride {
		out.relPhase[k] = ts.relPhase[i]
		out.cosA[k] = ts.cosA[i]
		out.sinA[k] = ts.sinA[i]
		out.scale[k] = ts.scale[i]
		k++
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
