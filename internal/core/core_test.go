package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locate"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/testbed"
)

func TestLocate2DRecoversReader(t *testing.T) {
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
	loc := core.NewLocator(core.Config{})
	res, err := loc.Locate2D(registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	errDist := res.Position.DistanceTo(target.XY())
	if errDist > 0.10 {
		t.Errorf("2D error %.1f cm, want < 10 cm (pos %v)", errDist*100, res.Position)
	}
	if len(res.Bearings) != 2 {
		t.Errorf("bearings = %d, want 2", len(res.Bearings))
	}
	for _, b := range res.Bearings {
		if b.Snapshots < 20 {
			t.Errorf("tag %s contributed only %d snapshots", b.EPC, b.Snapshots)
		}
		if b.Power <= 0 {
			t.Errorf("tag %s peak power %v", b.EPC, b.Power)
		}
	}
}

func TestLocate2DAcrossPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(2.5, 0.5, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{})
	for i := 0; i < 5; i++ {
		az := rng.Float64() * 2 * math.Pi
		d := 1.2 + 1.3*rng.Float64()
		target := geom.V3(d*math.Cos(az), d*math.Sin(az), 0)
		// Skip near-collinear placements where bearing intersection is
		// ill-conditioned by construction (the F10 experiment
		// characterizes the full error distribution including those).
		if math.Abs(math.Sin(az)) < 0.4 {
			continue
		}
		sc.PlaceReader(target)
		col, err := sc.Collect(rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loc.Locate2D(registered, col.Obs)
		if err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
		if e := res.Position.DistanceTo(target.XY()); e > 0.25 {
			t.Errorf("placement %d (%v): error %.1f cm", i, target, e*100)
		}
	}
}

func TestLocate3DRecoversElevatedReader(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := testbed.DefaultScenario(0.095, rng)
	target := geom.V3(-1.6, 1.2, 1.1)
	sc.PlaceReader(target)
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{})
	res, err := loc.Locate3D(registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Position.DistanceTo(target); e > 0.25 {
		t.Errorf("3D error %.1f cm (pos %v)", e*100, res.Position)
	}
	// The mirror candidate reflects through the fused disk plane height.
	if res.Mirror.XY().DistanceTo(res.Position.XY()) > 1e-9 {
		t.Error("mirror candidate moved horizontally")
	}
	if res.Mirror.Z >= res.Position.Z {
		t.Errorf("mirror z %v should sit below selected z %v", res.Mirror.Z, res.Position.Z)
	}
}

func TestLocate3DZPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sc := testbed.DefaultScenario(0, rng)
	target := geom.V3(-1.5, 1.0, 0.8)
	sc.PlaceReader(target)
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	down := core.NewLocator(core.Config{ZPolicy: locate.ZPreferNonPositive})
	res, err := down.Locate3D(registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Position.Z > 0 {
		t.Errorf("ZPreferNonPositive picked z = %v", res.Position.Z)
	}
}

func TestOrientationCalibrationImprovesAccuracy(t *testing.T) {
	// The Fig. 11(b) effect, as a statistical test over several trials:
	// with calibration the mean error must be smaller.
	rng := rand.New(rand.NewSource(17))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(2.0, 1.5, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	withCal := core.NewLocator(core.Config{})
	without := core.NewLocator(core.Config{DisableOrientation: true})
	var sumWith, sumWithout float64
	const trials = 8
	for i := 0; i < trials; i++ {
		az := 0.4 + 2.2*rng.Float64()
		d := 1.5 + 2.0*rng.Float64()
		target := geom.V3(d*math.Cos(az), d*math.Sin(az), 0)
		sc.PlaceReader(target)
		col, err := sc.Collect(rng)
		if err != nil {
			t.Fatal(err)
		}
		a, err := withCal.Locate2D(registered, col.Obs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := without.Locate2D(registered, col.Obs)
		if err != nil {
			t.Fatal(err)
		}
		sumWith += a.Position.DistanceTo(target.XY())
		sumWithout += b.Position.DistanceTo(target.XY())
	}
	if sumWith >= sumWithout {
		t.Errorf("orientation calibration did not help: with %.1f cm vs without %.1f cm (means)",
			sumWith/trials*100, sumWithout/trials*100)
	}
}

func TestLocate2DWithHoppingReader(t *testing.T) {
	// With random channel hopping the pipeline must select the dominant
	// channel group rather than mixing carriers.
	rng := rand.New(rand.NewSource(19))
	sc := testbed.DefaultScenario(0, rng)
	sc.HopChannel = -1
	sc.Rotations = 6 // more rotations so the dominant channel still has enough reads
	sc.ReadRateHz = 160
	target := geom.V3(-1.2, 2.0, 0)
	sc.PlaceReader(target)
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{MinSnapshots: 8})
	res, err := loc.Locate2D(registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Position.DistanceTo(target.XY()); e > 0.30 {
		t.Errorf("hopping 2D error %.1f cm", e*100)
	}
}

func TestLocate2DErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(2, 1, 0))
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{})
	// No registered tags at all.
	if _, err := loc.Locate2D(nil, col.Obs); !errors.Is(err, core.ErrTooFewTags) {
		t.Errorf("err = %v, want ErrTooFewTags", err)
	}
	// Only one tag has observations.
	one := col.Registered[:1]
	if _, err := loc.Locate2D(one, col.Obs); !errors.Is(err, core.ErrTooFewTags) {
		t.Errorf("err = %v, want ErrTooFewTags", err)
	}
	// A tag with too few snapshots.
	starved := make(core.Observations)
	for epc, snaps := range col.Obs {
		starved[epc] = snaps[:3]
	}
	if _, err := loc.Locate2D(col.Registered, starved); !errors.Is(err, core.ErrTooFewSnapshots) {
		t.Errorf("err = %v, want ErrTooFewSnapshots", err)
	}
	if _, err := loc.Locate3D(col.Registered, starved); !errors.Is(err, core.ErrTooFewSnapshots) {
		t.Errorf("3D err = %v, want ErrTooFewSnapshots", err)
	}
}

func TestLocatorKindQAlsoWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sc := testbed.DefaultScenario(0, rng)
	target := geom.V3(1.9, -1.3, 0)
	sc.PlaceReader(target)
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{Kind: spectrum.KindQ})
	res, err := loc.Locate2D(col.Registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Position.DistanceTo(target.XY()); e > 0.3 {
		t.Errorf("Q-profile 2D error %.1f cm", e*100)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func() geom.Vec2 {
		rng := rand.New(rand.NewSource(31))
		sc := testbed.DefaultScenario(0, rng)
		target := geom.V3(-2.0, 1.0, 0)
		sc.PlaceReader(target)
		col, err := sc.Collect(rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewLocator(core.Config{}).Locate2D(col.Registered, col.Obs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Position
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different results: %v vs %v", a, b)
	}
}

func TestSnapshotsUnmodifiedByPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-2.0, 1.5, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	// Deep-copy the observations for comparison.
	before := make(map[string][]phase.Snapshot, len(col.Obs))
	for epc, snaps := range col.Obs {
		before[epc.String()] = append([]phase.Snapshot(nil), snaps...)
	}
	if _, err := core.NewLocator(core.Config{}).Locate2D(registered, col.Obs); err != nil {
		t.Fatal(err)
	}
	for epc, snaps := range col.Obs {
		orig := before[epc.String()]
		for i := range snaps {
			if snaps[i] != orig[i] {
				t.Fatalf("tag %s snapshot %d mutated", epc, i)
			}
		}
	}
}

func TestValidateRegistration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-1.8, 1.4, 0))
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{})
	good := col.Registered[0]
	diag, err := loc.ValidateRegistration(good, col.Obs[good.EPC])
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Coherent {
		t.Errorf("correct registration flagged incoherent: %+v", diag)
	}
	// Corrupt the registered angular velocity: the stack must decohere.
	bad := good
	bad.Disk.Omega *= 1.5
	diag, err = loc.ValidateRegistration(bad, col.Obs[good.EPC])
	if err != nil {
		t.Fatal(err)
	}
	if diag.Coherent {
		t.Errorf("wrong omega not detected: peak power %v", diag.PeakPower)
	}
	// Corrupt the radius: likewise.
	bad = good
	bad.Disk.Radius = 0.03
	diag, err = loc.ValidateRegistration(bad, col.Obs[good.EPC])
	if err != nil {
		t.Fatal(err)
	}
	if diag.Coherent {
		t.Errorf("wrong radius not detected: peak power %v", diag.PeakPower)
	}
	// Too few snapshots errors.
	if _, err := loc.ValidateRegistration(good, col.Obs[good.EPC][:2]); err == nil {
		t.Error("starved validation accepted")
	}
}

// TestLocateParallelDeterministic pins the concurrency contract of the
// per-tag bearing fan-out: repeated runs over identical snapshots must give
// bit-identical results (positions, bearings, powers), regardless of
// goroutine scheduling. Run with -race to also check memory safety.
func TestLocateParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-1.7, 1.5, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{})
	ref, err := loc.Locate2D(registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, err := loc.Locate2D(registered, col.Obs)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Position != ref.Position {
			t.Fatalf("run %d: position %v != %v", run, res.Position, ref.Position)
		}
		if len(res.Bearings) != len(ref.Bearings) {
			t.Fatalf("run %d: %d bearings != %d", run, len(res.Bearings), len(ref.Bearings))
		}
		for i, b := range res.Bearings {
			if b != ref.Bearings[i] {
				t.Fatalf("run %d bearing %d: %+v != %+v", run, i, b, ref.Bearings[i])
			}
		}
	}
}

// TestLocateContextCanceled verifies the pipeline aborts between spectrum
// passes when its context dies: an already-canceled context must return
// context.Canceled from both solvers without producing a result.
func TestLocateContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-1.8, 1.4, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	loc := core.NewLocator(core.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loc.Locate2DContext(ctx, registered, col.Obs); !errors.Is(err, context.Canceled) {
		t.Errorf("Locate2DContext err = %v, want context.Canceled", err)
	}
	if _, err := loc.Locate3DContext(ctx, registered, col.Obs); !errors.Is(err, context.Canceled) {
		t.Errorf("Locate3DContext err = %v, want context.Canceled", err)
	}
	// A live context must still produce the normal result through the
	// context-threaded path.
	res, err := loc.Locate2DContext(context.Background(), registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Position.DistanceTo(geom.V2(-1.8, 1.4)); e > 0.10 {
		t.Errorf("ctx path 2D error %.1f cm", e*100)
	}
}
