package spectrum_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/spectrum"
)

// polishCases are the R sessions the polish tests run on: pipelineSessions
// (uncorrected, corrected against the truth and against a 15 cm offset) at
// three placements per dimension, each in robust and literal mode.
func polishCases(t *testing.T, threeD bool, visit func(label string, ev *spectrum.Evaluator)) {
	t.Helper()
	seed, truths := int64(30), []geom.Vec3{geom.V3(-1.8, 1.4, 0), geom.V3(0.6, 2.7, 0), geom.V3(2.9, 1.1, 0)}
	if threeD {
		seed, truths = 50, []geom.Vec3{geom.V3(-1.8, 1.4, 0.5), geom.V3(0.7, 2.4, 1.0), geom.V3(2.6, 1.5, 0.3)}
	}
	for i, truth := range truths {
		for _, s := range pipelineSessions(t, seed+int64(i), truth) {
			for _, literal := range []bool{false, true} {
				p := spectrum.Params{Disk: s.tag.Disk, LiteralReference: literal}
				ev, err := spectrum.NewEvaluator(s.snaps, p, spectrum.KindR)
				if err != nil {
					t.Fatal(err)
				}
				visit(fmt.Sprintf("placement %d %s literal=%v", i, s.name, literal), ev)
			}
		}
	}
}

// TestPolishR pins the continuous R refinement on polishCases, 2D on the
// default grid and 3D on the default grid and on one with 10° polar
// cells, where some polish steps must backtrack. Refinement round 1 alone
// is the search at Refinements 1; against that winner, every search at the
// default depth must
//
//   - return at least the winner's exact power;
//   - stay within one round-1 cell of it on each axis, or within the
//     2.24 cells grid rounds 2–4 reach from the polish's box when the
//     polish fell back;
//   - keep its polar sign;
//   - reach, to 1e-9 relative, the best EvalAt of an exhaustive scan of
//     the polish's box (one round-1 cell around the winner, on its side of
//     γ = 0) at the final grid resolution, the round-1 cell over 5³.
//
// In 3D the exhaustive scan covers the box at five times that spacing,
// then ±5 final steps around its best, which on these single-peaked boxes
// finds the same maximum at a fiftieth of the cost.
func TestPolishR(t *testing.T) {
	const rel = 1e-9
	grids := []struct {
		name   string
		threeD bool
		opts   spectrum.SearchOptions
	}{
		{"2D", false, spectrum.SearchOptions{CoarseStep: geom.Radians(0.5)}},
		{"3D", true, spectrum.SearchOptions{CoarseStep: geom.Radians(0.5), CoarsePolarStep: geom.Radians(2)}},
		{"3D-polar10", true, spectrum.SearchOptions{CoarseStep: geom.Radians(0.5), CoarsePolarStep: geom.Radians(10)}},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			round1 := g.opts
			round1.Refinements = 1
			cellAz, cellPol := g.opts.CoarseStep/5, 0.0
			if g.threeD {
				cellAz, cellPol = 4*g.opts.CoarseStep/5, g.opts.CoarsePolarStep/5
			}
			var polishes, fallbacks, evals uint64
			polishCases(t, g.threeD, func(label string, ev *spectrum.Evaluator) {
				var win, got spectrum.Peak3D
				spectrum.ResetSearchStats()
				if g.threeD {
					win = spectrum.FindPeak3DEval(ev, round1)
					got = spectrum.FindPeak3DEval(ev, g.opts)
				} else {
					win.Azimuth, win.Power = spectrum.FindPeak2DEval(ev, round1)
					got.Azimuth, got.Power = spectrum.FindPeak2DEval(ev, g.opts)
				}
				st := spectrum.SearchStatsSnapshot()
				polishes += st.Polishes
				fallbacks += st.PolishFallbacks
				evals += st.PolishEvals
				if got.Power < win.Power {
					t.Errorf("%s: refined power %v below the round-1 winner's %v", label, got.Power, win.Power)
				}
				// A polish that falls back hands its point, inside the box,
				// to grid rounds 2–4, which reach 1 + 1/5 + 1/25 cells on.
				reach := 1.0
				if st.PolishFallbacks > 0 {
					reach = 2.24
				}
				dAz := math.Abs(geom.NormalizeAngle(got.Azimuth-win.Azimuth+math.Pi) - math.Pi)
				if dAz > reach*cellAz*(1+1e-9) || math.Abs(got.Polar-win.Polar) > reach*cellPol*(1+1e-9) {
					t.Errorf("%s: refined %+v is more than %v round-1 cells from the winner %+v", label, got, reach, win)
				}
				if got.Polar*win.Polar < 0 {
					t.Errorf("%s: refined polar %v flipped the winner's sign (%v)", label, got.Polar, win.Polar)
				}
				polLo, polHi := max(win.Polar-cellPol, -math.Pi/2), min(win.Polar+cellPol, math.Pi/2)
				if win.Polar > 0 {
					polLo = max(polLo, 0)
				} else if win.Polar < 0 {
					polHi = min(polHi, 0)
				}
				sc := ev.NewScratch()
				bestAz, bestPol, best := win.Azimuth, win.Polar, win.Power
				scan := func(az0, pol0 float64, half int, div float64) {
					for i := -half; i <= half; i++ {
						pol := pol0 + float64(i)*cellPol/div
						if pol < polLo || pol > polHi || (i != 0 && !g.threeD) {
							continue
						}
						for k := -half; k <= half; k++ {
							az := az0 + float64(k)*cellAz/div
							if math.Abs(az-win.Azimuth) > cellAz {
								continue
							}
							if v := ev.EvalAt(sc, az, pol); v > best {
								bestAz, bestPol, best = az, pol, v
							}
						}
					}
				}
				if g.threeD {
					scan(win.Azimuth, win.Polar, 25, 25)
					scan(bestAz, bestPol, 5, 125)
				} else {
					scan(win.Azimuth, 0, 125, 125)
				}
				if got.Power < best*(1-rel) {
					t.Errorf("%s: refined power %v below the exhaustive scan's %v at (%v, %v) (got %+v)",
						label, got.Power, best, bestAz, bestPol, got)
				}
			})
			t.Logf("%d polishes, %d fell back, %.1f EvalAt each", polishes, fallbacks, float64(evals)/float64(polishes))
		})
	}
}

// TestPolishRNeverDescends starts the polish off the peak with cells of 8°
// and 16° — far wider than refinement's, so the local quadratic model is
// poor and full trust-radius steps overshoot — from the round-1 winner
// moved by 0 or ±0.9 cell on each axis. Whether or not it converges, the
// polish must return the exact power at the point it returns and never
// less than the power it started from: the backtracking line search is
// what guarantees it. In 2D, whose R peak is wide enough to hold these
// boxes, it must also converge from at least 90% of the starts (96% now):
// halving an overshooting step is what keeps it going, and a polish that
// gives up at the first step that fails to rise converges from ~80%.
func TestPolishRNeverDescends(t *testing.T) {
	offsets := []float64{-0.9, 0, 0.9}
	for _, threeD := range []bool{false, true} {
		starts, converged := 0, 0
		polishCases(t, threeD, func(label string, ev *spectrum.Evaluator) {
			var win spectrum.Peak3D
			if threeD {
				win = spectrum.FindPeak3DEval(ev, spectrum.SearchOptions{Refinements: 1})
			} else {
				win.Azimuth, _ = spectrum.FindPeak2DEval(ev, spectrum.SearchOptions{Refinements: 1})
			}
			sc := ev.NewScratch()
			for _, cell := range []float64{geom.Radians(8), geom.Radians(16)} {
				cellPol := 0.0
				if threeD {
					cellPol = cell
				}
				for _, du := range offsets {
					for _, dv := range offsets {
						if !threeD && dv != 0 {
							continue
						}
						pol := min(max(win.Polar+dv*cellPol, -math.Pi/2), math.Pi/2)
						start := spectrum.Peak3D{Azimuth: win.Azimuth + du*cell, Polar: pol}
						start.Power = ev.EvalAt(sc, start.Azimuth, start.Polar)
						got, ok := spectrum.PolishR(ev, start, cell, cellPol, 3)
						starts++
						if ok {
							converged++
						}
						if got.Power < start.Power {
							t.Errorf("%s cell %.0f°: polish from %+v descended to %+v", label, geom.Degrees(cell), start, got)
						}
						if exact := ev.EvalAt(sc, got.Azimuth, got.Polar); got.Power != exact {
							t.Errorf("%s cell %.0f°: polish returned power %v, EvalAt there is %v", label, geom.Degrees(cell), got.Power, exact)
						}
					}
				}
			}
		})
		t.Logf("threeD=%v: converged from %d of %d starts", threeD, converged, starts)
		if !threeD && 10*converged < 9*starts {
			t.Errorf("2D polish converged from %d of %d starts, want ≥ 90%%", converged, starts)
		}
	}
}
