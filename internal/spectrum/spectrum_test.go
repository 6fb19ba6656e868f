package spectrum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
)

const (
	testFreq = 922.5e6
	testWave = 299_792_458.0 / testFreq
)

func testParams() Params {
	return Params{Disk: spindisk.Disk{
		Center: geom.V3(0.4, 0, 0),
		Radius: 0.10,
		Omega:  math.Pi,
	}}
}

// synth generates snapshots of a full rotation using exact geometry: the
// phase is 4π·|tag−reader|/λ plus a diversity constant plus noise.
func synth(p Params, reader geom.Vec3, n int, diversity, sigma float64, rng *rand.Rand) []phase.Snapshot {
	period := p.Disk.Period()
	snaps := make([]phase.Snapshot, 0, n)
	for i := 0; i < n; i++ {
		tm := time.Duration(float64(period) * float64(i) / float64(n))
		tagPos := p.Disk.TagPosition(tm)
		ph := 4*math.Pi*tagPos.DistanceTo(reader)/testWave + diversity
		if sigma > 0 {
			ph += rng.NormFloat64() * sigma
		}
		snaps = append(snaps, phase.Snapshot{
			Time:        tm,
			Phase:       mathx.WrapPhase(ph),
			FrequencyHz: testFreq,
		})
	}
	return snaps
}

func TestProfilesPeakAtReaderDirection(t *testing.T) {
	p := testParams()
	reader := geom.V3(-2.8, 0, 0) // φ_R = 180° from the disk center
	snaps := synth(p, reader, 80, 1.3, 0, nil)
	angles := UniformAngles(720)
	for _, kind := range []Kind{KindQ, KindR} {
		prof, err := Compute2D(snaps, p, kind, angles)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		peak, power := prof.Peak()
		if geom.AngleDistance(peak, math.Pi) > geom.Radians(1.5) {
			t.Errorf("%v peak at %v°, want 180°", kind, geom.Degrees(peak))
		}
		if power <= 0 {
			t.Errorf("%v peak power %v", kind, power)
		}
	}
}

func TestRSharperThanQUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := testParams()
	reader := geom.V3(-2.8, 0, 0)
	snaps := synth(p, reader, 80, 0.7, 0.1, rng)
	angles := UniformAngles(720)
	q, err := Compute2D(snaps, p, KindQ, angles)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Compute2D(snaps, p, KindR, angles)
	if err != nil {
		t.Fatal(err)
	}
	if rs, qs := r.Sharpness(), q.Sharpness(); rs <= qs {
		t.Errorf("R sharpness %v not greater than Q sharpness %v", rs, qs)
	}
	if rw, qw := r.HalfPowerBeamwidth(), q.HalfPowerBeamwidth(); rw >= qw {
		t.Errorf("R HPBW %v° not narrower than Q HPBW %v°", geom.Degrees(rw), geom.Degrees(qw))
	}
	// Both must still point at the truth.
	qPeak, _ := q.Peak()
	rPeak, _ := r.Peak()
	if geom.AngleDistance(qPeak, math.Pi) > geom.Radians(4) ||
		geom.AngleDistance(rPeak, math.Pi) > geom.Radians(4) {
		t.Errorf("peaks strayed: Q %v°, R %v°", geom.Degrees(qPeak), geom.Degrees(rPeak))
	}
}

func TestDiversityTermCancelled(t *testing.T) {
	// Two datasets differing only in θ_div must give identical profiles.
	p := testParams()
	reader := geom.V3(-1.5, 2.0, 0)
	a := synth(p, reader, 60, 0.0, 0, nil)
	b := synth(p, reader, 60, 2.9, 0, nil)
	angles := UniformAngles(360)
	pa, err := Compute2D(a, p, KindR, angles)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Compute2D(b, p, KindR, angles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa.Power {
		if math.Abs(pa.Power[i]-pb.Power[i]) > 1e-9 {
			t.Fatalf("profiles differ at %d: %v vs %v", i, pa.Power[i], pb.Power[i])
		}
	}
}

func TestFindPeak2DAccuracy(t *testing.T) {
	p := testParams()
	for _, azDeg := range []float64{0, 45, 135, 180, 250, 333} {
		az := geom.Radians(azDeg)
		reader := p.Disk.Center.Add(geom.V3(2.5*math.Cos(az), 2.5*math.Sin(az), 0))
		snaps := synth(p, reader, 80, 1.0, 0, nil)
		got, _, err := FindPeak2D(snaps, p, KindR, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The residual error of Eqn. 2's far-field approximation against
		// the exact geometry used by the synthesizer biases the peak by
		// up to ≈0.3° at D = 2.5 m, r = 0.1 m.
		if geom.AngleDistance(got, az) > geom.Radians(0.5) {
			t.Errorf("azimuth %v°: found %v°", azDeg, geom.Degrees(got))
		}
	}
}

func TestFindPeak2DMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := testParams()
	reader := geom.V3(-2.0, 1.0, 0)
	snaps := synth(p, reader, 70, 0.4, 0.1, rng)
	fast, _, err := FindPeak2D(snaps, p, KindR, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := ExhaustivePeak2D(snaps, p, KindR, geom.Radians(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if geom.AngleDistance(fast, slow) > geom.Radians(0.1) {
		t.Errorf("coarse-to-fine %v° vs exhaustive %v°", geom.Degrees(fast), geom.Degrees(slow))
	}
}

func TestExhaustivePeak2DBadStep(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2, 0, 0), 10, 0, 0, nil)
	if _, _, err := ExhaustivePeak2D(snaps, p, KindR, 0); err == nil {
		t.Error("zero step accepted")
	}
}

// synth3D generates snapshots with the reader off-plane.
func synth3D(p Params, reader geom.Vec3, n int, sigma float64, rng *rand.Rand) []phase.Snapshot {
	return synth(p, reader, n, 0.9, sigma, rng)
}

func TestProfile3DPeakAndMirror(t *testing.T) {
	p := testParams()
	// Reader at azimuth 180°, elevation ≈ 21.4° from the disk center.
	reader := geom.V3(-2.1, 0, 0.98)
	rel := reader.Sub(p.Disk.Center)
	wantAz, wantPol := rel.Azimuth(), rel.Polar()
	snaps := synth3D(p, reader, 90, 0, nil)
	az := UniformAngles(360)
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 91)
	prof, err := Compute3D(snaps, p, KindR, az, pol)
	if err != nil {
		t.Fatal(err)
	}
	pkAz, pkPol, _ := prof.Peak()
	if geom.AngleDistance(pkAz, wantAz) > geom.Radians(2) {
		t.Errorf("3D peak azimuth %v°, want %v°", geom.Degrees(pkAz), geom.Degrees(wantAz))
	}
	if math.Abs(math.Abs(pkPol)-math.Abs(wantPol)) > geom.Radians(3) {
		t.Errorf("3D peak |polar| %v°, want %v°", geom.Degrees(math.Abs(pkPol)), geom.Degrees(math.Abs(wantPol)))
	}
	// The z-mirror of the truth scores the same (±z ambiguity, §V-B).
	ev, err := NewEvaluator(snaps, p, KindR)
	if err != nil {
		t.Fatal(err)
	}
	sc := ev.NewScratch()
	up := ev.EvalAt(sc, wantAz, wantPol)
	down := ev.EvalAt(sc, wantAz, -wantPol)
	if math.Abs(up-down) > 0.05*up {
		t.Errorf("mirror asymmetry: %v vs %v", up, down)
	}
	maxima := prof.LocalMaxima(0.8)
	if len(maxima) < 2 {
		t.Fatalf("expected ≥2 mirror peaks, found %d", len(maxima))
	}
	if maxima[0].Polar*maxima[1].Polar > 0 {
		t.Errorf("top-2 peaks not z-mirrored: %+v", maxima[:2])
	}
}

func TestFindPeak3DAccuracy(t *testing.T) {
	p := testParams()
	reader := geom.V3(-2.1, 0.6, 0.9)
	rel := reader.Sub(p.Disk.Center)
	snaps := synth3D(p, reader, 90, 0, nil)
	pk, err := FindPeak3D(snaps, p, KindR, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if geom.AngleDistance(pk.Azimuth, rel.Azimuth()) > geom.Radians(1) {
		t.Errorf("azimuth %v°, want %v°", geom.Degrees(pk.Azimuth), geom.Degrees(rel.Azimuth()))
	}
	if math.Abs(math.Abs(pk.Polar)-math.Abs(rel.Polar())) > geom.Radians(2) {
		t.Errorf("|polar| %v°, want %v°", geom.Degrees(math.Abs(pk.Polar)), geom.Degrees(rel.Polar()))
	}
}

func TestComputeErrors(t *testing.T) {
	p := testParams()
	good := synth(p, geom.V3(-2, 0, 0), 10, 0, 0, nil)
	if _, err := Compute2D(good[:1], p, KindQ, UniformAngles(8)); err == nil {
		t.Error("single snapshot accepted")
	}
	noFreq := append([]phase.Snapshot(nil), good...)
	noFreq[3].FrequencyHz = 0
	if _, err := Compute2D(noFreq, p, KindQ, UniformAngles(8)); err == nil {
		t.Error("zero frequency accepted")
	}
	bad := p
	bad.Disk.Radius = 0
	if _, err := Compute2D(good, bad, KindQ, UniformAngles(8)); err == nil {
		t.Error("zero radius accepted")
	}
	bad = p
	bad.Sigma = -0.1
	if _, err := Compute2D(good, bad, KindQ, UniformAngles(8)); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := Compute3D(good[:1], p, KindR, UniformAngles(8), []float64{0}); err == nil {
		t.Error("3D single snapshot accepted")
	}
}

func TestNormalized(t *testing.T) {
	prof := Profile{Angles: []float64{0, 1, 2}, Power: []float64{1, 4, 2}}
	n := prof.Normalized()
	if n.Power[1] != 1 || n.Power[0] != 0.25 {
		t.Errorf("normalized = %v", n.Power)
	}
	if prof.Power[1] != 4 {
		t.Error("Normalized mutated the input")
	}
	zero := Profile{Angles: []float64{0, 1}, Power: []float64{0, 0}}
	if z := zero.Normalized(); z.Power[0] != 0 {
		t.Error("zero profile mishandled")
	}
}

func TestMetricsOnSyntheticShapes(t *testing.T) {
	// A delta-like profile: huge sharpness, tiny HPBW, infinite PSLR.
	n := 360
	delta := Profile{Angles: UniformAngles(n), Power: make([]float64, n)}
	delta.Power[100] = 1
	if s := delta.Sharpness(); s < 100 {
		t.Errorf("delta sharpness = %v", s)
	}
	if w := delta.HalfPowerBeamwidth(); w > 3*2*math.Pi/float64(n) {
		t.Errorf("delta HPBW = %v", w)
	}
	if pslr := delta.PeakToSidelobe(); !math.IsInf(pslr, 1) {
		t.Errorf("delta PSLR = %v, want +Inf", pslr)
	}
	// A flat profile never drops below half power.
	flat := Profile{Angles: UniformAngles(n), Power: make([]float64, n)}
	for i := range flat.Power {
		flat.Power[i] = 1
	}
	if w := flat.HalfPowerBeamwidth(); w != 2*math.Pi {
		t.Errorf("flat HPBW = %v, want 2π", w)
	}
	// A two-lobe profile has a finite PSLR of peak/sidelobe.
	two := Profile{Angles: UniformAngles(n), Power: make([]float64, n)}
	two.Power[50] = 1
	two.Power[250] = 0.4
	if pslr := two.PeakToSidelobe(); math.Abs(pslr-2.5) > 1e-9 {
		t.Errorf("two-lobe PSLR = %v, want 2.5", pslr)
	}
}

func TestKindString(t *testing.T) {
	if KindQ.String() != "Q" || KindR.String() != "R" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestUniformAngles(t *testing.T) {
	a := UniformAngles(4)
	want := []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Errorf("angle %d = %v, want %v", i, a[i], want[i])
		}
	}
}

// TestProfileInvariantToGlobalPhaseShift checks the θ_div cancellation as a
// property: adding any constant to every snapshot phase leaves both
// profiles unchanged.
func TestProfileInvariantToGlobalPhaseShift(t *testing.T) {
	p := testParams()
	base := synth(p, geom.V3(-2.0, 1.5, 0), 50, 0, 0, nil)
	angles := UniformAngles(180)
	ref := map[Kind]Profile{}
	for _, kind := range []Kind{KindQ, KindR} {
		prof, err := Compute2D(base, p, kind, angles)
		if err != nil {
			t.Fatal(err)
		}
		ref[kind] = prof
	}
	f := func(shiftRaw float64) bool {
		if math.IsNaN(shiftRaw) || math.IsInf(shiftRaw, 0) {
			return true
		}
		shift := mathx.WrapPhase(shiftRaw)
		shifted := make([]phase.Snapshot, len(base))
		for i, s := range base {
			s.Phase = mathx.WrapPhase(s.Phase + shift)
			shifted[i] = s
		}
		for _, kind := range []Kind{KindQ, KindR} {
			prof, err := Compute2D(shifted, p, kind, angles)
			if err != nil {
				return false
			}
			for i := range prof.Power {
				if math.Abs(prof.Power[i]-ref[kind].Power[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPeakTracksReaderRotation is a property over the whole azimuth circle:
// rotating the reader around the disk rotates the found peak with it.
func TestPeakTracksReaderRotation(t *testing.T) {
	p := testParams()
	f := func(azRaw float64) bool {
		if math.IsNaN(azRaw) || math.IsInf(azRaw, 0) {
			return true
		}
		az := geom.NormalizeAngle(azRaw)
		reader := p.Disk.Center.Add(geom.V3(2.2*math.Cos(az), 2.2*math.Sin(az), 0))
		snaps := synth(p, reader, 60, 0.5, 0, nil)
		got, _, err := FindPeak2D(snaps, p, KindR, SearchOptions{})
		if err != nil {
			return false
		}
		return geom.AngleDistance(got, az) < geom.Radians(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
