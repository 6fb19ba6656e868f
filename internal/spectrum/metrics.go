package spectrum

import (
	"errors"
	"math"
	"sync/atomic"

	"github.com/tagspin/tagspin/internal/geom"
)

// ErrNonUniformAngles is returned by the checked profile metrics when the
// profile's Angles are not a uniform-step grid: bin-count arithmetic (e.g.
// the beamwidth's bins-to-radians conversion) silently mis-scales on
// irregular grids, so the checked variants refuse instead.
var ErrNonUniformAngles = errors.New("spectrum: profile angles are not uniformly spaced")

// searchCountersT tallies which coarse-search route each scan actually took
// and what the R polish after refinement round 1 did.
// Bench and soak runs read the snapshot to confirm the intended path ran; a
// soak where Dense2D climbs while HarmonicR2D stays flat means a dense
// reference function leaked into production, not that a kernel regressed.
// Counters are process-wide (route selection is per-call, not
// per-Evaluator) and atomically maintained, mirroring the plan-cache
// telemetry in plancache.go.
type searchCountersT struct {
	harmonicQ2D atomic.Uint64
	harmonicR2D atomic.Uint64
	harmonicQ3D atomic.Uint64
	harmonicR3D atomic.Uint64
	dense2D     atomic.Uint64
	dense3D     atomic.Uint64

	polishes        atomic.Uint64
	polishEvals     atomic.Uint64
	polishFallbacks atomic.Uint64
}

var searchCounters searchCountersT

// SearchStats is a point-in-time snapshot of the search counters. The six
// route counters sum to the number of coarse scans; the Polish counters
// cover the continuous R refinement that follows refinement round 1.
type SearchStats struct {
	HarmonicQ2D uint64 // 2D KindQ argmax via harmonic synthesis
	HarmonicR2D uint64 // 2D KindR argmax via the two-pass R synthesis
	HarmonicQ3D uint64 // 3D KindQ argmax via per-row harmonic synthesis
	HarmonicR3D uint64 // 3D KindR argmax via per-row two-pass R synthesis
	Dense2D     uint64 // 2D argmax via the dense reference function (FindPeak2DDense)
	Dense3D     uint64 // 3D argmax via the dense reference function (FindPeak3DDense)

	Polishes        uint64 // R refinements that ran the continuous polish (polishR)
	PolishEvals     uint64 // EvalAt calls those polishes made
	PolishFallbacks uint64 // polishes that gave up and fell back to the grid rounds
}

// SearchStatsSnapshot returns the current routing counters.
func SearchStatsSnapshot() SearchStats {
	return SearchStats{
		HarmonicQ2D: searchCounters.harmonicQ2D.Load(),
		HarmonicR2D: searchCounters.harmonicR2D.Load(),
		HarmonicQ3D: searchCounters.harmonicQ3D.Load(),
		HarmonicR3D: searchCounters.harmonicR3D.Load(),
		Dense2D:     searchCounters.dense2D.Load(),
		Dense3D:     searchCounters.dense3D.Load(),

		Polishes:        searchCounters.polishes.Load(),
		PolishEvals:     searchCounters.polishEvals.Load(),
		PolishFallbacks: searchCounters.polishFallbacks.Load(),
	}
}

// ResetSearchStats zeroes the search counters (tests and bench preambles).
func ResetSearchStats() {
	searchCounters.harmonicQ2D.Store(0)
	searchCounters.harmonicR2D.Store(0)
	searchCounters.harmonicQ3D.Store(0)
	searchCounters.harmonicR3D.Store(0)
	searchCounters.dense2D.Store(0)
	searchCounters.dense3D.Store(0)
	searchCounters.polishes.Store(0)
	searchCounters.polishEvals.Store(0)
	searchCounters.polishFallbacks.Store(0)
}

// Normalized returns a copy of the profile scaled so its maximum is 1.
// An all-zero profile is returned unchanged.
func (p Profile) Normalized() Profile {
	_, peak := p.Peak()
	out := Profile{
		Angles: append([]float64(nil), p.Angles...),
		Power:  make([]float64, len(p.Power)),
	}
	if peak == 0 {
		copy(out.Power, p.Power)
		return out
	}
	for i, v := range p.Power {
		out.Power[i] = v / peak
	}
	return out
}

// Sharpness returns peak power divided by mean power. Higher means the
// profile concentrates energy at the peak — the property Fig. 6 illustrates
// for R versus Q.
func (p Profile) Sharpness() float64 {
	_, peak := p.Peak()
	if len(p.Power) == 0 || peak == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range p.Power {
		sum += v
	}
	return peak / (sum / float64(len(p.Power)))
}

// HalfPowerBeamwidth returns the angular width (radians) of the contiguous
// region around the peak where power stays at or above half the peak.
//
// The bin-to-radian conversion derives the grid spacing from the first two
// entries of Angles, so the profile must be sampled on a *uniform* angular
// grid (as produced by UniformAngles); on an irregular grid the bin count
// has no single radian scale, and the method reports NaN rather than a
// wrongly-scaled width (HalfPowerBeamwidthChecked distinguishes that case
// with a typed error). A profile with fewer than two samples has no
// measurable width and also reports NaN.
func (p Profile) HalfPowerBeamwidth() float64 {
	v, _ := p.HalfPowerBeamwidthChecked()
	return v
}

// HalfPowerBeamwidthChecked is HalfPowerBeamwidth with the failure modes
// split out: it returns (NaN, ErrNonUniformAngles) when the profile was
// sampled on a non-uniform grid — a dense profile over an arbitrary angle
// list is one — and (NaN, nil) for the too-short-to-measure case.
func (p Profile) HalfPowerBeamwidthChecked() (float64, error) {
	n := len(p.Power)
	if n < 2 {
		return math.NaN(), nil
	}
	if !anglesApproxUniform(p.Angles) {
		return math.NaN(), ErrNonUniformAngles
	}
	peakIdx := 0
	for i, v := range p.Power {
		if v > p.Power[peakIdx] {
			peakIdx = i
		}
	}
	half := p.Power[peakIdx] / 2
	// Walk left and right on the circular grid until power drops below half.
	left, right := 0, 0
	for step := 1; step < n; step++ {
		if p.Power[(peakIdx-step+n)%n] < half {
			break
		}
		left = step
	}
	for step := 1; step < n; step++ {
		if p.Power[(peakIdx+step)%n] < half {
			break
		}
		right = step
	}
	if left+right >= n-1 {
		return 2 * math.Pi, nil // never drops below half power
	}
	// Convert bin counts to radians using the (uniform) grid spacing.
	spacing := geom.AngleDistance(p.Angles[1], p.Angles[0])
	return float64(left+right+1) * spacing, nil
}

// uniformAngleTol is the absolute gap tolerance (radians) under which an
// angle grid counts as uniform-step: UniformAngles grids pass at ~1e−15 gap
// wobble, any intentional jitter is ≥ microradians.
const uniformAngleTol = 1e-9

// anglesApproxUniform reports whether the grid's consecutive gaps all match
// the first gap within uniformAngleTol. Grids shorter than 3 cells are
// trivially uniform.
func anglesApproxUniform(angles []float64) bool {
	if len(angles) < 3 {
		return true
	}
	g0 := angles[1] - angles[0]
	for k := 2; k < len(angles); k++ {
		if d := angles[k] - angles[k-1] - g0; d > uniformAngleTol || d < -uniformAngleTol {
			return false
		}
	}
	return true
}

// PeakToSidelobe returns the ratio of the main peak to the highest local
// maximum outside the main lobe (the main lobe being the contiguous
// above-half-power region). It returns +Inf when no sidelobe exists.
func (p Profile) PeakToSidelobe() float64 {
	n := len(p.Power)
	if n < 3 {
		return math.NaN()
	}
	peakIdx := 0
	for i, v := range p.Power {
		if v > p.Power[peakIdx] {
			peakIdx = i
		}
	}
	peak := p.Power[peakIdx]
	if peak == 0 {
		return math.NaN()
	}
	half := peak / 2
	inMain := make([]bool, n)
	inMain[peakIdx] = true
	for step := 1; step < n; step++ {
		i := (peakIdx + step) % n
		if p.Power[i] < half {
			break
		}
		inMain[i] = true
	}
	for step := 1; step < n; step++ {
		i := (peakIdx - step + n) % n
		if p.Power[i] < half {
			break
		}
		inMain[i] = true
	}
	best := 0.0
	for i := 0; i < n; i++ {
		if inMain[i] {
			continue
		}
		prev := p.Power[(i-1+n)%n]
		next := p.Power[(i+1)%n]
		if p.Power[i] >= prev && p.Power[i] >= next && p.Power[i] > best {
			best = p.Power[i]
		}
	}
	if best == 0 {
		return math.Inf(1)
	}
	return peak / best
}

// Normalized returns a copy of the 3D profile scaled so its maximum is 1.
func (p Profile3D) Normalized() Profile3D {
	_, _, peak := p.Peak()
	out := Profile3D{
		Azimuths: append([]float64(nil), p.Azimuths...),
		Polars:   append([]float64(nil), p.Polars...),
		Power:    make([][]float64, len(p.Power)),
	}
	for i, row := range p.Power {
		r := make([]float64, len(row))
		for j, v := range row {
			if peak == 0 {
				r[j] = v
			} else {
				r[j] = v / peak
			}
		}
		out.Power[i] = r
	}
	return out
}

// Sharpness returns peak power over mean power for the 3D profile.
func (p Profile3D) Sharpness() float64 {
	_, _, peak := p.Peak()
	var sum float64
	var count int
	for _, row := range p.Power {
		for _, v := range row {
			sum += v
			count++
		}
	}
	if count == 0 || peak == 0 {
		return math.NaN()
	}
	return peak / (sum / float64(count))
}

// LocalMaxima returns all strict interior local maxima of the 3D profile at
// or above threshold·peak, sorted by descending power. It is how the Fig. 8
// experiment demonstrates the two z-mirror peaks.
func (p Profile3D) LocalMaxima(threshold float64) []Peak3D {
	_, _, peak := p.Peak()
	var out []Peak3D
	rows := len(p.Power)
	if rows == 0 {
		return nil
	}
	cols := len(p.Power[0])
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := p.Power[i][j]
			if v < threshold*peak {
				continue
			}
			isMax := true
			for di := -1; di <= 1 && isMax; di++ {
				for dj := -1; dj <= 1; dj++ {
					if di == 0 && dj == 0 {
						continue
					}
					ni := i + di
					nj := (j + dj + cols) % cols // azimuth wraps
					if ni < 0 || ni >= rows {
						continue
					}
					if p.Power[ni][nj] > v {
						isMax = false
						break
					}
				}
			}
			if isMax {
				out = append(out, Peak3D{Azimuth: p.Azimuths[j], Polar: p.Polars[i], Power: v})
			}
		}
	}
	// Insertion sort by descending power; the list is short.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Power > out[j-1].Power; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
