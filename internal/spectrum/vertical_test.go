package spectrum

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
)

func verticalParams() VerticalParams {
	return VerticalParams{Disk: spindisk.VerticalDisk{
		Center:       geom.V3(0, -0.35, 0.3),
		Radius:       0.10,
		Omega:        math.Pi,
		PlaneAzimuth: 0,
	}}
}

// synthVertical generates snapshots of a vertically spinning tag using
// exact geometry.
func synthVertical(p VerticalParams, reader geom.Vec3, n int, sigma float64, rng *rand.Rand) []phase.Snapshot {
	period := time.Duration(2 * math.Pi / math.Abs(p.Disk.Omega) * float64(time.Second))
	snaps := make([]phase.Snapshot, 0, n)
	for i := 0; i < n; i++ {
		tm := time.Duration(float64(period) * float64(i) / float64(n))
		tagPos := p.Disk.TagPositionAt(p.Disk.Angle(tm))
		ph := 4*math.Pi*tagPos.DistanceTo(reader)/testWave + 0.9
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

// TestFindPeakVerticalSignedPolar checks the vertical disk's R profile, the
// one ResolveMirror scores, peaks at the truth over the whole signed
// (azimuth, polar) grid: right azimuth, right polar sign, right polar. The
// profile sees azimuth only through cos(φ−ψ), so the azimuth is found up to
// its mirror 2ψ−φ in the disk plane; the polar sign has no such mirror.
func TestFindPeakVerticalSignedPolar(t *testing.T) {
	p := verticalParams()
	for _, zSign := range []float64{+1, -1} {
		reader := geom.V3(-2.0, 0.5, 0.3+zSign*0.9)
		rel := reader.Sub(p.Disk.Center)
		snaps := synthVertical(p, reader, 90, 0, nil)
		terms, err := prepareVertical(snaps, p)
		if err != nil {
			t.Fatal(err)
		}
		eval := func(phi, gamma float64) float64 {
			return evalVertical(terms, KindR, p.sigma(), p.LiteralReference, p.Disk.PlaneAzimuth, phi, gamma)
		}
		// Coarse 2° scan of the signed grid, then a 0.2° scan around the
		// coarse peak.
		step := geom.Radians(2)
		bestAz, bestPol, bestPower := 0.0, 0.0, math.Inf(-1)
		for i := -45; i <= 45; i++ {
			for k := 0; k < 180; k++ {
				if v := eval(float64(k)*step, float64(i)*step); v > bestPower {
					bestAz, bestPol, bestPower = float64(k)*step, float64(i)*step, v
				}
			}
		}
		azLo, polLo, fine := bestAz-step, bestPol-step, step/10
		for i := 0; i <= 20; i++ {
			gamma := clampPolar(polLo + float64(i)*fine)
			for k := 0; k <= 20; k++ {
				phi := azLo + float64(k)*fine
				if v := eval(phi, gamma); v > bestPower {
					bestAz, bestPol, bestPower = phi, gamma, v
				}
			}
		}
		mirrorAz := 2*p.Disk.PlaneAzimuth - bestAz
		if d := math.Min(geom.AngleDistance(bestAz, rel.Azimuth()), geom.AngleDistance(mirrorAz, rel.Azimuth())); d > geom.Radians(3) {
			t.Errorf("zSign %v: azimuth %.1f° (mirror %.1f°), want %.1f°",
				zSign, geom.Degrees(bestAz), geom.Degrees(geom.NormalizeAngle(mirrorAz)), geom.Degrees(rel.Azimuth()))
		}
		// The signed polar must come out with the right sign — that is the
		// whole point of the vertical disk.
		if bestPol*rel.Polar() <= 0 {
			t.Errorf("zSign %v: polar %.1f° has wrong sign (want like %.1f°)",
				zSign, geom.Degrees(bestPol), geom.Degrees(rel.Polar()))
		}
		if math.Abs(bestPol-rel.Polar()) > geom.Radians(5) {
			t.Errorf("zSign %v: polar %.1f°, want %.1f°",
				zSign, geom.Degrees(bestPol), geom.Degrees(rel.Polar()))
		}
		got, err := ResolveMirror(snaps, p, KindR, rel.Azimuth(), math.Abs(rel.Polar()))
		if err != nil {
			t.Fatal(err)
		}
		if got*rel.Polar() <= 0 {
			t.Errorf("zSign %v: resolved polar %.1f°, truth %.1f°",
				zSign, geom.Degrees(got), geom.Degrees(rel.Polar()))
		}
	}
}

// TestResolveMirror checks the vertical disk's profile tells +γ from −γ:
// for readers above and below the disk, noise-free and noisy, ResolveMirror
// must return the truth's polar sign from its magnitude.
func TestResolveMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := verticalParams()
	for _, sigma := range []float64{0, 0.1} {
		for _, zSign := range []float64{+1, -1} {
			reader := geom.V3(-1.8, 0.8, 0.3+zSign*1.0)
			rel := reader.Sub(p.Disk.Center)
			snaps := synthVertical(p, reader, 90, sigma, rng)
			got, err := ResolveMirror(snaps, p, KindR, rel.Azimuth(), math.Abs(rel.Polar()))
			if err != nil {
				t.Fatal(err)
			}
			if got*rel.Polar() <= 0 {
				t.Errorf("σ %v zSign %v: resolved polar %.1f°, truth %.1f°",
					sigma, zSign, geom.Degrees(got), geom.Degrees(rel.Polar()))
			}
		}
	}
}

func TestVerticalValidation(t *testing.T) {
	p := verticalParams()
	good := synthVertical(p, geom.V3(-2, 0, 1), 20, 0, nil)
	bad := p
	bad.Disk.Radius = 0
	if _, err := ResolveMirror(good, bad, KindR, 0, 0.3); err == nil {
		t.Error("zero radius accepted")
	}
	bad = p
	bad.Disk.Omega = 0
	if _, err := ResolveMirror(good, bad, KindR, 0, 0.3); err == nil {
		t.Error("zero omega accepted")
	}
	bad = p
	bad.Sigma = -1
	if _, err := ResolveMirror(good, bad, KindR, 0, 0.3); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := ResolveMirror(good[:1], p, KindR, 0, 0.3); err == nil {
		t.Error("single snapshot accepted")
	}
	noFreq := append([]phase.Snapshot(nil), good...)
	noFreq[2].FrequencyHz = 0
	if _, err := ResolveMirror(noFreq, p, KindR, 0, 0.3); err == nil {
		t.Error("zero frequency accepted")
	}
}

// TestVerticalQAlsoPeaks checks the plain Q profile of the vertical disk
// is signed too: it scores the truth's side of the mirror higher, above and
// below the disk, so ResolveMirror works for either kind.
func TestVerticalQAlsoPeaks(t *testing.T) {
	p := verticalParams()
	for _, zSign := range []float64{+1, -1} {
		reader := geom.V3(-2.2, 0.4, 0.3+zSign*0.9)
		rel := reader.Sub(p.Disk.Center)
		snaps := synthVertical(p, reader, 90, 0, nil)
		got, err := ResolveMirror(snaps, p, KindQ, rel.Azimuth(), math.Abs(rel.Polar()))
		if err != nil {
			t.Fatal(err)
		}
		if got*rel.Polar() <= 0 {
			t.Errorf("zSign %v: Q resolved polar %.1f°, truth %.1f°",
				zSign, geom.Degrees(got), geom.Degrees(rel.Polar()))
		}
	}
}
