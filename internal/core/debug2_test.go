package core_test

import (
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/testbed"
)

// TestDebugBiasSources isolates systematic bearing-error sources: each case
// switches the orientation effect, the phase noise and the orientation
// calibration on or off, prints per-tag bearing errors and the position
// error (run with -v to inspect), and bounds them. Each bound is 1.5× the
// largest error measured when it was set (in the comment beside it),
// rounded up. The uncalibrated orientation effect must also show: its
// largest bearing error stays above half the one measured.
func TestDebugBiasSources(t *testing.T) {
	cases := []struct {
		name          string
		orientation   float64 // channel injection scale
		noise         float64
		calibrate     bool
		maxBearingDeg float64
		minBearingDeg float64 // floor on the largest bearing error
		maxPosCm      float64
	}{
		{"clean-no-orient-no-noise", 0, 0, false, 0.03, 0, 1}, // 0.017°, 0.64 cm
		{"noise-only", 0, 0.1, false, 0.25, 0, 12},            // 0.166°, 7.69 cm
		{"orient-only-uncal", 1, 0, false, 4, 1.3, 44},        // 2.655°, 28.90 cm
		{"orient-only-cal", 1, 0, true, 0.04, 0, 1.5},         // 0.025°, 0.95 cm
		{"full-cal", 1, 0.1, true, 0.2, 0, 12},                // 0.132°, 7.39 cm
	}
	target := geom.V3(-1.8, 1.4, 0)
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(42))
		sc := testbed.DefaultScenario(0, rng)
		sc.Channel.OrientationEffect = tc.orientation
		sc.Channel.PhaseNoiseStd = tc.noise
		sc.PlaceReader(target)
		registered := []core.SpinningTag(nil)
		var err error
		if tc.calibrate {
			registered, err = sc.CalibratedSpinningTags(rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		col, err := sc.Collect(rng)
		if err != nil {
			t.Fatal(err)
		}
		if registered == nil {
			registered = col.Registered
		}
		res, err := core.NewLocator(core.Config{}).Locate2D(registered, col.Obs)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i, b := range res.Bearings {
			var diskCenter geom.Vec3
			for _, r := range registered {
				if r.EPC == b.EPC {
					diskCenter = r.Disk.Center
				}
			}
			want := target.Sub(diskCenter).Azimuth()
			errDeg := geom.Degrees(geom.AngleDistance(b.Azimuth, want))
			t.Logf("%-26s tag%d err=%.3f°", tc.name, i, errDeg)
			worst = max(worst, errDeg)
		}
		posErr := res.Position.DistanceTo(target.XY()) * 100
		t.Logf("%-26s pos err=%.2fcm", tc.name, posErr)
		if worst > tc.maxBearingDeg || worst < tc.minBearingDeg {
			t.Errorf("%s: largest bearing error %.3f°, want in [%.3g°, %.3g°]", tc.name, worst, tc.minBearingDeg, tc.maxBearingDeg)
		}
		if posErr > tc.maxPosCm {
			t.Errorf("%s: position error %.1f cm > %.3g cm", tc.name, posErr, tc.maxPosCm)
		}
	}
}
