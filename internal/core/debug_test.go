package core_test

import (
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/testbed"
)

// TestDebugBearingErrors prints per-tag azimuth errors of one calibrated 2D
// session, located with and without the orientation correction (run with -v
// to inspect), and bounds what it prints. Each bound is 1.5× the error
// measured when it was set (in the comment beside it), rounded up, so an
// answer that drifts by more than half its error fails. The correction must
// also beat the uncorrected locate.
func TestDebugBearingErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := testbed.DefaultScenario(0, rng)
	target := geom.V3(-1.8, 1.4, 0)
	sc.PlaceReader(target)
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg           core.Config
		maxBearingDeg float64
		maxPosCm      float64
	}{
		{core.Config{}, 0.2, 12},                         // 0.132°, 7.39 cm
		{core.Config{DisableOrientation: true}, 2.1, 74}, // 1.394°, 49.03 cm
	}
	posErr := make([]float64, len(cases))
	for i, tc := range cases {
		res, err := core.NewLocator(tc.cfg).Locate2D(registered, col.Obs)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range res.Bearings {
			var diskCenter geom.Vec3
			for _, r := range registered {
				if r.EPC == b.EPC {
					diskCenter = r.Disk.Center
				}
			}
			want := target.Sub(diskCenter).Azimuth()
			errDeg := geom.Degrees(geom.AngleDistance(b.Azimuth, want))
			t.Logf("disableOrient=%v tag %s: az=%.3f° want=%.3f° err=%.3f° n=%d",
				tc.cfg.DisableOrientation, b.EPC.String()[:6],
				geom.Degrees(b.Azimuth), geom.Degrees(want), errDeg, b.Snapshots)
			if errDeg > tc.maxBearingDeg {
				t.Errorf("disableOrient=%v tag %s: bearing error %.3f° > %.3g°",
					tc.cfg.DisableOrientation, b.EPC.String()[:6], errDeg, tc.maxBearingDeg)
			}
		}
		posErr[i] = res.Position.DistanceTo(target.XY()) * 100
		t.Logf("disableOrient=%v pos=%v err=%.2fcm", tc.cfg.DisableOrientation, res.Position, posErr[i])
		if posErr[i] > tc.maxPosCm {
			t.Errorf("disableOrient=%v: position error %.1f cm > %.3g cm", tc.cfg.DisableOrientation, posErr[i], tc.maxPosCm)
		}
	}
	if posErr[0] >= posErr[1] {
		t.Errorf("corrected position error %.1f cm ≥ uncorrected %.1f cm", posErr[0], posErr[1])
	}
}
