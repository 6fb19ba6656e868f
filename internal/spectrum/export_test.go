package spectrum

import "math"

// CoarsePrune3D replays the incumbent and cut of harmonicArgmax3D on ev's
// default-shaped 3D coarse grid (KindR) and reports the share of the
// synthesized cells — the unique polar rows, as the route synthesizes them
// — whose |Ŝ|²/n² falls under the cut, together with the incumbent value
// and the exact value of the dense argmax cell. The incumbent is weak when
// it sits below that peak: the largest-|Ŝ| cell is then not the R argmax.
func CoarsePrune3D(ev *Evaluator, opts SearchOptions) (share, incumbent, peak float64) {
	azStep, polStep, nAz, nPol := opts.grid3D()
	hs := &harmonicScratch{}
	sc, one := ev.NewScratch(), ev.NewScratch()
	one.ensureRow(1)
	ev.fillUniformTrig(sc, 0, nAz, azStep)
	sinPhi, cosPhi := sc.sinPhi[:nAz], sc.cosPhi[:nAz]
	z := ev.coarse.singleScale()
	if z > 0 {
		foldUnitSums(hs, ev.coarse)
	}
	incumbent = ev.rIncumbent3D(hs, ev.coarse, z, sc, one, make([]float64, nPol), polStep)
	cut2 := ev.rPruneCut(incumbent, harmonicSlack)
	qRe, qIm := make([]float64, nAz), make([]float64, nAz)
	pruned, cells := 0, 0
	for r := 0; r < nPol; r++ {
		if m, mirror := polarMirror(r, nPol, polStep); mirror && m < r {
			continue
		}
		foldRow(hs, ev.coarse, z, math.Cos(polarAngle(r, polStep)))
		hs.coeffs.synthesizeComplex(qRe, qIm, sinPhi, cosPhi)
		for k, re := range qRe {
			cells++
			if re*re+qIm[k]*qIm[k] < cut2 {
				pruned++
			}
		}
	}
	idx := ev.denseArgmax3D(ev.coarse, nAz, nPol, azStep, polStep)
	peak = ev.evalGridCell(ev.coarse, one, sinPhi[idx%nAz], cosPhi[idx%nAz], polarAngle(idx/nAz, polStep))
	return float64(pruned) / float64(cells), incumbent, peak
}
