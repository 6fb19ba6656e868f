package spectrum

import (
	"math"
	"slices"
)

// CoarseSweep is what CoarseSweep3D reports about one R coarse sweep.
type CoarseSweep struct {
	// Cut2 is the sweep's prune cut on |Ŝ|²/n²; Incumbent is the exact value
	// of its incumbent cell Inc (a grid index), and Peak the exact value of
	// the dense argmax cell. The incumbent is weak when it sits below the
	// peak: the largest-|Ŝ| cell is then not the R argmax.
	Cut2, Incumbent, Peak float64
	Inc                   int
	// Rows counts the synthesizable polar rows (mirrors excluded), Skipped
	// those the sweep left unsynthesized, and SkippedMax2 is the largest
	// |Ŝ|²/n² a full synthesis finds on a skipped row (−Inf when none).
	Rows, Skipped int
	SkippedMax2   float64
	// Weighted counts the cells the main pass weights — at or above the cut,
	// in a row the sweep kept — and Share is the share of the synthesizable
	// cells under the cut.
	Weighted int
	Share    float64
	// BruteInc and BruteWeighted are the incumbent cell and the count of
	// cells at or above Cut2 when every row is synthesized, in ascending
	// row order with the lowest row winning a tie.
	BruteInc, BruteWeighted int
}

// CoarseSweep3D runs harmonicArgmax3D's R sweep (rIncumbent3D) on ev's
// default-shaped 3D coarse grid and, beside it, a brute-force sweep that
// synthesizes every polar row the route synthesizes.
func CoarseSweep3D(ev *Evaluator, opts SearchOptions) CoarseSweep {
	azStep, polStep, nAz, nPol := opts.grid3D()
	polBase := -math.Pi / 2
	hs := &harmonicScratch{}
	sc := ev.NewScratch()
	sinPhi, cosPhi := hs.azimuthTrig(nAz, azStep)
	z := ev.coarse.singleScale()
	if z > 0 {
		foldUnitSums(hs, ev.coarse)
	}
	rows := hs.polarRows(nPol, polBase, polStep)
	swept, inc, cut2 := ev.rIncumbent3D(hs, rows, ev.coarse, z, sc, polBase, polStep)
	out := CoarseSweep{Cut2: cut2, Inc: inc, Rows: len(rows), Skipped: len(rows) - swept, SkippedMax2: math.Inf(-1)}
	cg := func(r int) float64 { return math.Cos(polarAngle(r, polBase, polStep)) }
	out.Incumbent = ev.evalCell(ev.coarse, sc, sinPhi[inc%nAz], cosPhi[inc%nAz], cg(inc/nAz))
	for i, row := range rows[:swept] {
		if row.max2 < cut2 {
			continue
		}
		qRe, qIm := hs.rowSums(i, nAz)
		for k, re := range qRe {
			if re*re+qIm[k]*qIm[k] >= cut2 {
				out.Weighted++
			}
		}
	}
	qRe, qIm := make([]float64, nAz), make([]float64, nAz)
	best := -1.0
	pruned := 0
	for r := 0; r < nPol; r++ {
		if m, mirror := polarMirror(r, nPol, polBase, polStep); mirror && m < r {
			continue
		}
		foldRow(hs, ev.coarse, z, cg(r))
		hs.coeffs.synthesizeComplex(qRe, qIm, sinPhi, cosPhi)
		m2, k := maxPhasorCell(qRe, qIm)
		if m2 > best {
			best, out.BruteInc = m2, r*nAz+k
		}
		if !slices.ContainsFunc(rows[:swept], func(row sweptRow) bool { return row.r == r }) {
			out.SkippedMax2 = max(out.SkippedMax2, m2)
		}
		for k, re := range qRe {
			if re*re+qIm[k]*qIm[k] >= cut2 {
				out.BruteWeighted++
			} else {
				pruned++
			}
		}
	}
	out.Share = float64(pruned) / float64(len(rows)*nAz)
	idx := ev.denseArgmax3D(ev.coarse, nAz, nPol, azStep, polStep)
	out.Peak = ev.evalCell(ev.coarse, sc, sinPhi[idx%nAz], cosPhi[idx%nAz], cg(idx/nAz))
	return out
}

// PolishR runs the continuous R polish from start, as refine3D runs it
// after refinement round 1: start's Power is rescored with EvalAt first,
// cellAz and cellPol are the round-1 cell (cellPol 0 for a 2D search), and
// rounds is the number of grid rounds the polish replaces.
func PolishR(ev *Evaluator, start Peak3D, cellAz, cellPol float64, rounds int) (Peak3D, bool) {
	sc := ev.NewScratch()
	start.Power = ev.EvalAt(sc, start.Azimuth, start.Polar)
	return ev.polishR(sc, start, cellAz, cellPol, rounds)
}
