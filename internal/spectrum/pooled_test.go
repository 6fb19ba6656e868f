package spectrum

import (
	"math"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/sched"
)

// withPoolWidth runs fn with the scheduler pinned to the given width,
// restoring the previous width afterwards. Width 1 runs every chunk on the
// calling goroutine; wider fans chunks out to the scheduler's helpers.
func withPoolWidth(t *testing.T, workers int, fn func()) {
	t.Helper()
	old := sched.Workers()
	sched.SetWorkers(workers)
	defer sched.SetWorkers(old)
	fn()
}

// TestPooledScanEquivalence is the pool-path bit-exactness pin required by
// the shared-pool migration: Profile2DInto, Profile3D, the synthesized
// FindPeak2DEval/FindPeak3DEval and the dense argmax behind
// FindPeak2DDense, FindPeak3DDense and ExhaustivePeak2D must produce
// bit-identical results whether scans run on the caller alone (width 1) or
// fanned out over helpers, for both kinds. Profile3D's 96-azimuth rows and
// the dense 3D coarse grid's 180 make 64-cell chunks cross polar-row
// boundaries. Run under -race at GOMAXPROCS=1 and 4 by `make check`.
func TestPooledScanEquivalence(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 1.1, 0.5), 120, 0.8, 0, nil)
	angles := UniformAngles(407) // odd count → partial final chunk
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 17)

	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}

		type result struct {
			prof2 Profile
			prof3 Profile3D
			peaks [3][2]float64 // FindPeak2DEval, FindPeak2DDense, ExhaustivePeak2D
			pks3D [2]Peak3D     // FindPeak3DEval, FindPeak3DDense
		}
		run := func(r *result) {
			ev.Profile2DInto(&r.prof2, angles)
			r.prof3 = ev.Profile3D(angles[:96], pol)
			r.peaks[0][0], r.peaks[0][1] = FindPeak2DEval(ev, SearchOptions{})
			r.peaks[1][0], r.peaks[1][1] = FindPeak2DDense(ev, SearchOptions{})
			az, pow, err := ExhaustivePeak2D(snaps, p, kind, geom.Radians(0.25))
			if err != nil {
				t.Fatal(err)
			}
			r.peaks[2] = [2]float64{az, pow}
			r.pks3D = [2]Peak3D{FindPeak3DEval(ev, SearchOptions{}), FindPeak3DDense(ev, SearchOptions{})}
		}
		var ser, pool result
		withPoolWidth(t, 1, func() { run(&ser) })
		withPoolWidth(t, 4, func() { run(&pool) })

		for i := range ser.prof2.Power {
			if pool.prof2.Power[i] != ser.prof2.Power[i] {
				t.Fatalf("%v: Profile2DInto diverged at %d: %v != %v",
					kind, i, pool.prof2.Power[i], ser.prof2.Power[i])
			}
		}
		for i := range ser.prof3.Power {
			for j := range ser.prof3.Power[i] {
				if pool.prof3.Power[i][j] != ser.prof3.Power[i][j] {
					t.Fatalf("%v: Profile3D diverged at %d,%d", kind, i, j)
				}
			}
		}
		for i, name := range []string{"FindPeak2DEval", "FindPeak2DDense", "ExhaustivePeak2D"} {
			if pool.peaks[i] != ser.peaks[i] {
				t.Fatalf("%v: %s pooled %v != serial %v", kind, name, pool.peaks[i], ser.peaks[i])
			}
		}
		for i, name := range []string{"FindPeak3DEval", "FindPeak3DDense"} {
			if pool.pks3D[i] != ser.pks3D[i] {
				t.Fatalf("%v: %s pooled %+v != serial %+v", kind, name, pool.pks3D[i], ser.pks3D[i])
			}
		}
	}
}

// TestPooledConcurrentScansEquivalence runs many evaluators' scans through
// the scheduler at once — concurrent scans contend for its helpers — and
// checks every result against the serial reference.
// Under -race this is the cross-job interference test.
func TestPooledConcurrentScansEquivalence(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-1.7, 0.9, 0), 100, 1.1, 0, nil)
	ev, err := NewEvaluator(snaps, p, KindR)
	if err != nil {
		t.Fatal(err)
	}
	wantAz, wantPow := 0.0, 0.0
	withPoolWidth(t, 1, func() { wantAz, wantPow = FindPeak2DEval(ev, SearchOptions{}) })

	withPoolWidth(t, 2, func() {
		const goroutines = 6
		done := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				for round := 0; round < 10; round++ {
					if az, pow := FindPeak2DEval(ev, SearchOptions{}); az != wantAz || pow != wantPow {
						done <- &equivErr{az, pow, wantAz, wantPow}
						return
					}
				}
				done <- nil
			}()
		}
		for g := 0; g < goroutines; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})
}

type equivErr struct{ az, pow, wantAz, wantPow float64 }

func (e *equivErr) Error() string {
	return "concurrent pooled peak diverged from serial reference"
}
