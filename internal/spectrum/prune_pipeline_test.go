package spectrum_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/testbed"
)

// pipelineSession is one tag's session as the locate pipeline scans it:
// calibrated testbed.DefaultScenario snapshots, time-sorted, optionally
// orientation-corrected against a reader position.
type pipelineSession struct {
	name  string
	tag   core.SpinningTag
	snaps []phase.Snapshot
}

// pipelineSessions collects one calibrated DefaultScenario session with
// the reader at truth and returns, per tag, the snapshots uncorrected,
// corrected against the truth, and corrected against a position 15 cm off
// it — the inputs the bootstrap pass, a converged correction pass and an
// early correction pass hand the spectrum search.
func pipelineSessions(t *testing.T, seed int64, truth geom.Vec3) []pipelineSession {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(truth)
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	offset := truth.Add(geom.V3(0.15*math.Cos(float64(seed)), 0.15*math.Sin(float64(seed)), 0))
	var out []pipelineSession
	for _, tag := range registered {
		snaps := append([]phase.Snapshot(nil), col.Obs[tag.EPC]...)
		if len(snaps) < 64 {
			t.Fatalf("tag %s: %d reads, want a full session", tag.EPC, len(snaps))
		}
		for _, s := range snaps {
			if s.FrequencyHz != snaps[0].FrequencyHz {
				t.Fatalf("tag %s: session hops channels; the pipeline would channel-filter it", tag.EPC)
			}
		}
		phase.SortByTime(snaps)
		out = append(out,
			pipelineSession{"uncorrected", tag, snaps},
			pipelineSession{"truth", tag, orientationCorrected(tag, snaps, truth)},
			pipelineSession{"offset", tag, orientationCorrected(tag, snaps, offset)})
	}
	return out
}

// orientationCorrected removes tag's fitted orientation offset from snaps
// against a reader position, the way the locate pipeline's correction
// passes do: each snapshot's orientation is taken against the sight line
// from the tag's rim position at that instant.
func orientationCorrected(tag core.SpinningTag, snaps []phase.Snapshot, reader geom.Vec3) []phase.Snapshot {
	return tag.Orientation.Apply(snaps, func(i int) float64 {
		a := tag.Disk.Angle(snaps[i].Time)
		az := reader.Sub(tag.Disk.TagPositionAt(a)).Azimuth()
		return geom.NormalizeAngle(tag.Disk.TagPlaneAngle(a) - az)
	})
}

// TestPrunedSearchMatchesDensePipeline pins the coarse R prune on the
// sessions the locate pipeline actually scans: calibrated DefaultScenario
// sessions, uncorrected and orientation-corrected against the truth and
// against a 15 cm-offset position, in robust and literal mode. Every
// pruned search — FindPeak2DEval on the default grid and on an odd 719-cell
// one, and FindPeak3DEval — must return its dense oracle's peak bit for
// bit. The 3D arm also checks that the prune still fires: on
// corrected sessions in the pipeline's robust mode at least 80% of the
// synthesized coarse cells must fall under the cut (~95% measured), so a
// change that silently stops pruning fails here. Uncorrected and
// literal-mode sessions prune far less and are pinned for bit-identity
// only. A weak incumbent — the largest-|Ŝ| cell not being the R argmax —
// must occur in some session, so the cut is exercised below the peak value
// too.
func TestPrunedSearchMatchesDensePipeline(t *testing.T) {
	opts := spectrum.SearchOptions{}
	t.Run("2D", func(t *testing.T) {
		grids := []spectrum.SearchOptions{opts, {CoarseStep: 2 * math.Pi / 719}}
		for i, truth := range []geom.Vec3{geom.V3(-1.8, 1.4, 0), geom.V3(0.6, 2.7, 0), geom.V3(2.9, 1.1, 0)} {
			for _, s := range pipelineSessions(t, int64(30+i), truth) {
				for _, literal := range []bool{false, true} {
					p := spectrum.Params{Disk: s.tag.Disk, LiteralReference: literal}
					ev, err := spectrum.NewEvaluator(s.snaps, p, spectrum.KindR)
					if err != nil {
						t.Fatal(err)
					}
					for _, g := range grids {
						gotAz, gotPow := spectrum.FindPeak2DEval(ev, g)
						if wantAz, wantPow := spectrum.FindPeak2DDense(ev, g); gotAz != wantAz || gotPow != wantPow {
							t.Fatalf("placement %d %s literal=%v step %v: routed (%v, %v) != dense (%v, %v)",
								i, s.name, literal, g.CoarseStep, gotAz, gotPow, wantAz, wantPow)
						}
					}
				}
			}
		}
	})
	t.Run("3D", func(t *testing.T) {
		weak := 0
		for i, truth := range []geom.Vec3{geom.V3(-1.8, 1.4, 0.5), geom.V3(0.7, 2.4, 1.0), geom.V3(2.6, 1.5, 0.3)} {
			for _, s := range pipelineSessions(t, int64(50+i), truth) {
				for _, literal := range []bool{false, true} {
					p := spectrum.Params{Disk: s.tag.Disk, LiteralReference: literal}
					ev, err := spectrum.NewEvaluator(s.snaps, p, spectrum.KindR)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := spectrum.FindPeak3DEval(ev, opts), spectrum.FindPeak3DDense(ev, opts); got != want {
						t.Fatalf("placement %d %s literal=%v: routed %+v != dense %+v", i, s.name, literal, got, want)
					}
					sw := spectrum.CoarseSweep3D(ev, opts)
					share, incumbent, peak := sw.Share, sw.Incumbent, sw.Peak
					t.Logf("placement %d %s literal=%v: %.1f%% of coarse cells pruned (incumbent %.6g, peak %.6g)",
						i, s.name, literal, 100*share, incumbent, peak)
					if !literal && s.name != "uncorrected" && share < 0.8 {
						t.Errorf("placement %d %s literal=%v: %.1f%% of coarse cells pruned, want ≥ 80%%",
							i, s.name, literal, 100*share)
					}
					if incumbent < peak {
						weak++
					}
				}
			}
		}
		if weak == 0 {
			t.Error("no session had a weak incumbent: the largest-|Ŝ| cell was always the R argmax")
		}
	})
}

// TestCoarseSweepExact pins the bound-ordered R coarse sweep against a
// brute-force sweep that synthesizes every polar row, on the sessions the
// locate pipeline scans, in robust and literal mode: every row the sweep
// skips unsynthesized must have its synthesized maximum |Ŝ|²/n² under the
// cut, the incumbent must be the brute-force sweep's cell (largest
// synthesized |Ŝ|, lowest row on a tie), and the main pass must weight
// exactly the cells at or above the cut. Each session also runs with its
// phases replaced by uniform noise, whose flat profile leaves every row's
// bound far above its maximum. Some session must skip rows, so a change
// that stops skipping fails here too.
func TestCoarseSweepExact(t *testing.T) {
	opts := spectrum.SearchOptions{}
	rng := rand.New(rand.NewSource(7))
	skipped, rows := 0, 0
	for i, truth := range []geom.Vec3{geom.V3(-1.6, 1.9, 0.6), geom.V3(1.2, 2.2, 0.9), geom.V3(2.4, 0.8, 0.4)} {
		var sessions []pipelineSession
		for _, s := range pipelineSessions(t, int64(70+i), truth) {
			noise := append([]phase.Snapshot(nil), s.snaps...)
			for k := range noise {
				noise[k].Phase = rng.Float64() * 2 * math.Pi
			}
			sessions = append(sessions, s, pipelineSession{s.name + "+noise", s.tag, noise})
		}
		for _, s := range sessions {
			for _, literal := range []bool{false, true} {
				p := spectrum.Params{Disk: s.tag.Disk, LiteralReference: literal}
				ev, err := spectrum.NewEvaluator(s.snaps, p, spectrum.KindR)
				if err != nil {
					t.Fatal(err)
				}
				sw := spectrum.CoarseSweep3D(ev, opts)
				name := fmt.Sprintf("placement %d %s %s literal=%v", i, s.tag.EPC, s.name, literal)
				if sw.Skipped > 0 && !(sw.SkippedMax2 < sw.Cut2) {
					t.Errorf("%s: a skipped row synthesizes |Ŝ|²/n² = %v, not under the cut %v", name, sw.SkippedMax2, sw.Cut2)
				}
				if sw.Inc != sw.BruteInc {
					t.Errorf("%s: incumbent cell %d, brute-force sweep's %d", name, sw.Inc, sw.BruteInc)
				}
				if sw.Weighted != sw.BruteWeighted {
					t.Errorf("%s: %d cells weighted, %d at or above the cut", name, sw.Weighted, sw.BruteWeighted)
				}
				skipped += sw.Skipped
				rows += sw.Rows
			}
		}
	}
	t.Logf("%d of %d rows skipped unsynthesized (%.0f%%)", skipped, rows, 100*float64(skipped)/float64(rows))
	if skipped == 0 {
		t.Error("no session skipped a row: the sweep synthesized every row")
	}
}
