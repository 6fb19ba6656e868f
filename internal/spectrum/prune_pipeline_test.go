package spectrum_test

import (
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
					share, incumbent, peak := spectrum.CoarsePrune3D(ev, opts)
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
