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
		ev, err := newVerticalEvaluator(snaps, p, KindR)
		if err != nil {
			t.Fatal(err)
		}
		sc := ev.NewScratch()
		eval := func(phi, gamma float64) float64 {
			return ev.verticalAt(sc, p.Disk.PlaneAzimuth, phi, gamma)
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

// verticalOracle is the vertical disk's profile in its original complex
// form: per-snapshot terms built with math.Cos and math.Sin of the disk
// angle, o·û/r = cos a·cos γ·cos(φ−ψ) + sin a·sin γ written out, and the
// phasors summed as complex128. verticalAt must reproduce its bits.
func verticalOracle(snaps []phase.Snapshot, p VerticalParams, kind Kind, phi, gamma float64) float64 {
	type term struct{ relPhase, cosA, sinA, scale float64 }
	terms := make([]term, len(snaps))
	for i, s := range snaps {
		a := p.Disk.Angle(s.Time)
		terms[i] = term{
			relPhase: mathx.WrapToPi(s.Phase - snaps[0].Phase),
			cosA:     math.Cos(a),
			sinA:     math.Sin(a),
			scale:    4 * math.Pi * p.Disk.Radius / s.Wavelength(),
		}
	}
	rect := func(r, theta float64) complex128 {
		return complex(r*math.Cos(theta), r*math.Sin(theta))
	}
	cg, sg := math.Cos(gamma), math.Sin(gamma)
	inPlane := cg * math.Cos(phi-p.Disk.PlaneAzimuth)
	aperture := func(t term) float64 {
		return t.scale * (t.cosA*inPlane + t.sinA*sg)
	}
	refAperture := aperture(terms[0])
	var sum complex128
	if kind != KindR {
		for _, t := range terms {
			sum += rect(1, t.relPhase+aperture(t))
		}
		return math.Hypot(real(sum), imag(sum)) / float64(len(terms))
	}
	residuals := make([]float64, len(terms))
	apertures := make([]float64, len(terms))
	var rs, rc float64
	for i, t := range terms {
		ap := aperture(t)
		apertures[i] = ap
		res := mathx.WrapToPi(t.relPhase - (refAperture - ap))
		residuals[i] = res
		rs += math.Sin(res)
		rc += math.Cos(res)
	}
	sigma := p.Sigma
	if sigma <= 0 {
		sigma = DefaultSigma
	}
	var weightSigma, mu float64
	if p.LiteralReference {
		weightSigma = sigma * math.Sqrt2
	} else {
		weightSigma = math.Hypot(sigma, modelResidualSigma)
		mu = math.Atan2(rs, rc)
	}
	for i, res := range residuals {
		w := mathx.GaussPDF(mathx.WrapToPi(res-mu), 0, weightSigma)
		sum += rect(w, terms[i].relPhase+apertures[i])
	}
	return math.Hypot(real(sum), imag(sum)) / float64(len(terms))
}

// TestResolveMirrorKernelBits pins the vertical disk on the shared exact
// kernel: over random sessions (reader, disk phase, plane azimuth, noise,
// σ, snapshot count), verticalAt returns verticalOracle's bits at ±γ and at
// random directions, for Q and R, robust and literal reference.
func TestResolveMirrorKernelBits(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 40; trial++ {
		p := verticalParams()
		p.Disk.PlaneAzimuth = rng.Float64()*2*math.Pi - math.Pi
		p.Disk.Theta0 = rng.Float64() * 2 * math.Pi
		p.LiteralReference = trial%2 == 1
		if trial%4 >= 2 {
			p.Sigma = 0.05 + 0.2*rng.Float64()
		}
		reader := geom.V3(4*rng.Float64()-2, 4*rng.Float64()-2, 0.3+2*rng.Float64()-1)
		snaps := synthVertical(p, reader, 20+rng.Intn(200), 0.1*rng.Float64(), rng)
		rel := reader.Sub(p.Disk.Center)
		for _, kind := range []Kind{KindQ, KindR} {
			ev, err := newVerticalEvaluator(snaps, p, kind)
			if err != nil {
				t.Fatal(err)
			}
			sc := ev.NewScratch()
			dirs := [][2]float64{{rel.Azimuth(), math.Abs(rel.Polar())}, {rel.Azimuth(), -math.Abs(rel.Polar())}}
			for k := 0; k < 8; k++ {
				dirs = append(dirs, [2]float64{2 * math.Pi * rng.Float64(), math.Pi*rng.Float64() - math.Pi/2})
			}
			for _, d := range dirs {
				got := ev.verticalAt(sc, p.Disk.PlaneAzimuth, d[0], d[1])
				if want := verticalOracle(snaps, p, kind, d[0], d[1]); got != want {
					t.Fatalf("trial %d %v literal=%v (φ, γ) = (%v, %v): kernel %v != oracle %v",
						trial, kind, p.LiteralReference, d[0], d[1], got, want)
				}
			}
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
