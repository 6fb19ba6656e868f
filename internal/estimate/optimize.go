package estimate

import (
	"math"
	"sync"
)

// initStep is the initial simplex edge (meters). The bearing seed is
// typically within a few centimeters of the optimum, so 5 cm brackets it
// while staying inside the likelihood's basin.
const initStep = 0.05

// convergeDiam is the simplex diameter at which refinement stops: well
// below the millimeter scale anything downstream can resolve, and a tenth
// of the 1 µm the golden traces allow an ML answer to move, so a last-bit
// change in one likelihood value moves an answer well inside that bound.
const convergeDiam = 1e-7

// maxDim is the largest search dimension the backend refines (x, y, z).
const maxDim = 3

// optScratch holds every work area the refinement and Hessian passes need,
// sized for maxDim once and for all: the simplex vertices (backed by one
// flat array), the centroid/trial/perturbation points, and the Hessian.
// Solves borrow one from optPool so a steady-state Solve2D/Solve3D performs
// no optimizer allocations at all — the same per-request pooling discipline
// the spectrum package applies to its search scratch.
type optScratch struct {
	vertBuf  [(maxDim + 1) * maxDim]float64
	verts    [maxDim + 1][]float64
	vals     [maxDim + 1]float64
	centroid [maxDim]float64
	trial    [maxDim]float64
	pert     [maxDim]float64
	hess     [maxDim][maxDim]float64
}

var optPool = sync.Pool{New: func() any { return new(optScratch) }}

// nelderMead minimizes f from x0 with the standard downhill-simplex
// coefficients (reflect 1, expand 2, contract 0.5, shrink 0.5), writing the
// best vertex into dst (len(dst) == len(x0)) and returning its value. The
// result is copied out rather than returned by reference because the
// vertices live in the pooled scratch. Derivative-free on purpose: the
// likelihood is smooth near the optimum but the Q profiles make it cheap to
// evaluate and awkward to differentiate analytically.
func nelderMead(f func([]float64) float64, x0, dst []float64, maxIter int, s *optScratch) float64 {
	n := len(x0)
	verts := s.verts[:n+1]
	vals := s.vals[:n+1]
	for i := range verts {
		v := s.vertBuf[i*maxDim : i*maxDim+n]
		copy(v, x0)
		if i > 0 {
			v[i-1] += initStep
		}
		verts[i] = v
		vals[i] = f(v)
	}
	centroid := s.centroid[:n]
	trial := s.trial[:n]

	order := func() {
		for i := 1; i < len(verts); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
				verts[j], verts[j-1] = verts[j-1], verts[j]
			}
		}
	}
	order()

	for iter := 0; iter < maxIter; iter++ {
		var diam float64
		for i := 1; i <= n; i++ {
			for d := 0; d < n; d++ {
				if dd := math.Abs(verts[i][d] - verts[0][d]); dd > diam {
					diam = dd
				}
			}
		}
		if diam < convergeDiam {
			break
		}

		for d := 0; d < n; d++ {
			var sum float64
			for i := 0; i < n; i++ { // all but the worst vertex
				sum += verts[i][d]
			}
			centroid[d] = sum / float64(n)
		}
		worst := n
		at := func(scale float64) float64 {
			for d := 0; d < n; d++ {
				trial[d] = centroid[d] + scale*(verts[worst][d]-centroid[d])
			}
			return f(trial)
		}

		fr := at(-1) // reflection
		switch {
		case fr < vals[0]:
			fe := at(-2) // expansion
			if fe < fr {
				copyFrom(verts[worst], centroid, -2)
				vals[worst] = fe
			} else {
				copyFrom(verts[worst], centroid, -1)
				vals[worst] = fr
			}
		case fr < vals[n-1]:
			copyFrom(verts[worst], centroid, -1)
			vals[worst] = fr
		default:
			fc := at(0.5) // contraction toward the worst vertex
			if fc < vals[worst] {
				copyFrom(verts[worst], centroid, 0.5)
				vals[worst] = fc
			} else {
				for i := 1; i <= n; i++ { // shrink toward the best
					for d := 0; d < n; d++ {
						verts[i][d] = verts[0][d] + 0.5*(verts[i][d]-verts[0][d])
					}
					vals[i] = f(verts[i])
				}
			}
		}
		order()
	}
	copy(dst, verts[0])
	return vals[0]
}

// copyFrom sets dst to centroid + scale·(dst − centroid) — the accepted
// trial point, recomputed in place exactly as `at` evaluated it.
func copyFrom(dst, centroid []float64, scale float64) {
	for d := range dst {
		dst[d] = centroid[d] + scale*(dst[d]-centroid[d])
	}
}

// covariance inverts the central-difference Hessian of f (the negative
// log-likelihood) at x, returning the covariance by value in the upper-left
// len(x)×len(x) block. It returns ok = false when the Hessian is not
// positive definite — a saddle or degenerate geometry where a Gaussian
// approximation would mislead. The dimension is at most maxDim, so the
// inverse comes from the closed-form 2×2/3×3 adjugate instead of a general
// elimination — no temporaries, which is what lets the whole Solve path run
// out of the pooled scratch.
func covariance(f func([]float64) float64, x []float64, s *optScratch) (cov [maxDim][maxDim]float64, ok bool) {
	n := len(x)
	h := hessianStep
	fx := f(x)
	p := s.pert[:n]
	pert := func(a int, da float64, b int, db float64) float64 {
		copy(p, x)
		p[a] += da
		if b >= 0 {
			p[b] += db
		}
		return f(p)
	}
	for a := 0; a < n; a++ {
		s.hess[a][a] = (pert(a, h, -1, 0) - 2*fx + pert(a, -h, -1, 0)) / (h * h)
		for b := a + 1; b < n; b++ {
			v := (pert(a, h, b, h) - pert(a, h, b, -h) -
				pert(a, -h, b, h) + pert(a, -h, b, -h)) / (4 * h * h)
			s.hess[a][b], s.hess[b][a] = v, v
		}
	}
	// Positive-definiteness check via leading principal minors (n ≤ 3).
	if !posDefinite(&s.hess, n) {
		return cov, false
	}
	if !invertSym(&s.hess, n, &cov) {
		return cov, false
	}
	for a := 0; a < n; a++ {
		if cov[a][a] <= 0 {
			return cov, false
		}
	}
	return cov, true
}

// invertSym writes the inverse of the symmetric n×n block of m into out via
// the adjugate formula. The determinant was already vetted positive by
// posDefinite; the explicit guard keeps a pathological near-zero determinant
// from laundering ±Inf into the covariance.
func invertSym(m *[maxDim][maxDim]float64, n int, out *[maxDim][maxDim]float64) bool {
	switch n {
	case 1:
		if m[0][0] == 0 {
			return false
		}
		out[0][0] = 1 / m[0][0]
	case 2:
		det := m[0][0]*m[1][1] - m[0][1]*m[1][0]
		if det == 0 || math.IsInf(det, 0) {
			return false
		}
		inv := 1 / det
		out[0][0] = m[1][1] * inv
		out[1][1] = m[0][0] * inv
		v := -m[0][1] * inv
		out[0][1], out[1][0] = v, v
	case 3:
		c00 := m[1][1]*m[2][2] - m[1][2]*m[2][1]
		c01 := m[0][2]*m[2][1] - m[0][1]*m[2][2]
		c02 := m[0][1]*m[1][2] - m[0][2]*m[1][1]
		c11 := m[0][0]*m[2][2] - m[0][2]*m[2][0]
		c12 := m[0][2]*m[1][0] - m[0][0]*m[1][2]
		c22 := m[0][0]*m[1][1] - m[0][1]*m[1][0]
		det := m[0][0]*c00 + m[1][0]*c01 + m[2][0]*c02
		if det == 0 || math.IsInf(det, 0) {
			return false
		}
		inv := 1 / det
		out[0][0] = c00 * inv
		out[1][1] = c11 * inv
		out[2][2] = c22 * inv
		out[0][1], out[1][0] = c01*inv, c01*inv
		out[0][2], out[2][0] = c02*inv, c02*inv
		out[1][2], out[2][1] = c12*inv, c12*inv
	default:
		return false
	}
	return true
}

// posDefinite checks Sylvester's criterion for the symmetric n×n block of m
// (n ≤ 3).
func posDefinite(m *[maxDim][maxDim]float64, n int) bool {
	if m[0][0] <= 0 {
		return false
	}
	if n >= 2 {
		if m[0][0]*m[1][1]-m[0][1]*m[1][0] <= 0 {
			return false
		}
	}
	if n >= 3 {
		det := m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
			m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
			m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
		if det <= 0 {
			return false
		}
	}
	return true
}
