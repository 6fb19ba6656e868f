package spectrum

import (
	"math"
	"sort"
	"sync"
)

// This file holds the hierarchical coarse-to-fine grid scanner: instead of
// evaluating every cell of the coarse grid, it evaluates a sparse lattice,
// keeps every basin whose score is within a Lipschitz-derived slack of the
// running maximum, and subdivides only those basins down to the full grid.
//
// The guarantee (the "peak capture bound", pinned by TestPeakCaptureBound
// and derived in DESIGN.md §11): the normalized Q profile is Lipschitz with
// constant L = (Σ z_i)/n per radian on each axis (termSlices.meanScale), so
// the level-ℓ lattice cell nearest the true full-grid argmax t scores at
// least F(t) − L·d_ℓ, where d_ℓ is the lattice's worst-case axis distance
// to any grid cell. Every evaluated cell is a real grid cell, so the
// running maximum never exceeds F(t) — retaining all evaluated cells within
// τ_ℓ = L·d_ℓ of the running maximum therefore always retains the cell
// nearest t, and its subdivision window contains the next level's nearest
// cell. By induction level 0 evaluates t itself, so the lowest-index
// maximum over evaluated cells IS the dense scan's argmax, evaluated with
// the very same per-cell arithmetic.
//
// Lattice geometry: level ℓ keeps every 2^ℓ-th azimuth (circular; the wrap
// gap is at most 2^ℓ cells) and every 2^ℓ-th polar row plus the last row
// (so the clamped [-π/2, π/2] boundary stays covered at every level).
// Subdividing a retained cell evaluates the level-(ℓ−1) lattice points
// within two lattice positions on each axis: the nearest level-(ℓ−1) point
// to t sits within 3·2^{ℓ-2} cells of the retained nearest level-ℓ point,
// and two positions of the finer lattice always span at least 2^ℓ cells,
// so the ±2 window provably contains it.
//
// The scanner serves KindQ 3D coarse scans only (coarseArgmax3D); the
// capture bound rests on Q's Lipschitz constant, which R's likelihood
// weights do not share.

const (
	// hierMaxSlack caps the top-level retention slack τ as a fraction of
	// the Q profile's [0, 1] range. Sparser starts are still *correct* —
	// τ grows with spacing and more cells get retained — but past ~0.3 the
	// retained set stops shrinking the work.
	hierMaxSlack = 0.3
	// hierMinTopCells is the minimum top-level lattice size; coarser starts
	// save nothing and give the threshold too few samples of the profile.
	hierMinTopCells = 16
)

// hierScratch bundles the per-search buffers; pooled so steady-state
// hierarchical scans allocate nothing.
type hierScratch struct {
	vals   []float64 // per-grid-cell Q score; -1 = not evaluated
	active []int     // evaluated cell indices, in evaluation order
	front  []int     // retained cells for the current subdivision round
}

var hierPool = sync.Pool{New: func() any { return new(hierScratch) }}

// hierLevels picks the starting lattice level: the sparsest power-of-two
// subsampling whose retention slack L·d stays under hierMaxSlack and whose
// lattice still has hierMinTopCells cells. Returns 0 when no level helps
// (degenerate Lipschitz constant or tiny grids) — the caller falls back to
// the dense scan.
func hierLevels(lf, axisSum float64, nAz, nPol int) int {
	if lf <= 0 || axisSum <= 0 {
		return 0
	}
	top := 0
	for top < 16 {
		next := top + 1
		if lf*float64(int(1)<<(next-1))*axisSum > hierMaxSlack {
			break
		}
		ka := (nAz + (1 << next) - 1) >> next
		if ka*len(latticeRows(nPol, next)) < hierMinTopCells {
			break
		}
		top = next
	}
	return top
}

// latticeRows returns the level-ℓ polar row lattice: every 2^ℓ-th row plus
// the last row, sorted ascending. Level 0 is every row. Keeping the last
// row at every level preserves the coverage bound at the clamped polar
// boundary, where the final gap may be shorter than 2^ℓ.
func latticeRows(nPol, level int) []int {
	if nPol <= 1 {
		return []int{0}
	}
	stepR := 1 << level
	rows := make([]int, 0, (nPol-1)/stepR+2)
	for r := 0; r < nPol-1; r += stepR {
		rows = append(rows, r)
	}
	return append(rows, nPol-1)
}

// evalCellQ scores one grid cell with the Q formula over the given terms,
// using exactly the per-cell arithmetic of the dense scan (math.Sincos
// candidate trig, the evaluator's configured phasor kernel), so a captured
// argmax cell carries the same value bits the dense scan would assign it.
func (e *Evaluator) evalCellQ(terms termSlices, phi, gamma float64) float64 {
	sinPhi, cosPhi := math.Sincos(phi)
	cg := math.Cos(gamma)
	if e.fastTrig {
		return evalQFast(terms, sinPhi, cosPhi, cg)
	}
	return evalQExact(terms, sinPhi, cosPhi, cg)
}

// hierarchicalArgmax3D runs the coarse-to-fine scan over the row-major
// nAz × nPol grid of polar rows -π/2 + r·polStep and returns the argmax cell
// index under the dense scan's lowest-index tie rule. When no lattice level
// helps (hierLevels returns 0) it scans densely.
func (e *Evaluator) hierarchicalArgmax3D(terms termSlices, nAz, nPol int, azStep, polStep float64) int {
	lf := terms.meanScale()
	axisSum := azStep
	if nPol > 1 {
		axisSum += polStep
	}
	top := hierLevels(lf, axisSum, nAz, nPol)
	if top < 1 {
		return e.denseArgmax3D(terms, nAz, nPol, azStep, polStep)
	}

	hs := hierPool.Get().(*hierScratch)
	nCells := nAz * nPol
	if cap(hs.vals) < nCells {
		hs.vals = make([]float64, nCells)
	}
	vals := hs.vals[:nCells]
	for i := range vals {
		vals[i] = -1
	}
	active := hs.active[:0]
	globalMax := math.Inf(-1)

	evalCell := func(a, r int) {
		idx := r*nAz + a
		if vals[idx] >= 0 {
			return
		}
		v := e.evalCellQ(terms, float64(a)*azStep, -math.Pi/2+float64(r)*polStep)
		vals[idx] = v
		active = append(active, idx)
		if v > globalMax {
			globalMax = v
		}
	}

	// Top level: the full level-`top` lattice.
	stepA := 1 << top
	for _, r := range latticeRows(nPol, top) {
		for a := 0; a < nAz; a += stepA {
			evalCell(a, r)
		}
	}

	// Subdivide retained basins level by level down to the full grid.
	for level := top; level >= 1; level-- {
		tau := lf * float64(int(1)<<(level-1)) * axisSum
		front := hs.front[:0]
		for _, idx := range active {
			if vals[idx] >= globalMax-tau {
				front = append(front, idx)
			}
		}
		hs.front = front
		rowsC := latticeRows(nPol, level-1)
		half := 1 << (level - 1)
		kAz := (nAz + half - 1) / half
		for _, idx := range front {
			a, r := idx%nAz, idx/nAz
			q := a / half
			rpos := sort.SearchInts(rowsC, r) // r is on every coarser lattice
			for dq := -2; dq <= 2; dq++ {
				ca := ((q+dq)%kAz + kAz) % kAz * half
				for dr := -2; dr <= 2; dr++ {
					if rp := rpos + dr; rp >= 0 && rp < len(rowsC) {
						evalCell(ca, rowsC[rp])
					}
				}
			}
		}
	}

	best, bestV := 0, math.Inf(-1)
	for idx, v := range vals { // ascending index → lowest-index tie rule
		if v > bestV {
			best, bestV = idx, v
		}
	}
	hs.active = active
	hierPool.Put(hs)
	return best
}
