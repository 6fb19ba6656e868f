package spectrum

import (
	"math"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/sched"
)

// withPoolWidth runs fn with the shared compute pool pinned to the given
// width, restoring the previous width afterwards. Width 1 forces the
// evaluator's inline serial path; wider forces the pooled path.
func withPoolWidth(t *testing.T, workers int, fn func()) {
	t.Helper()
	old := sched.Workers()
	sched.SetWorkers(workers)
	defer sched.SetWorkers(old)
	fn()
}

// TestPooledScanEquivalence is the pool-path bit-exactness pin required by
// the shared-pool migration: Profile2DInto, Profile3D, FindPeak2DEval and
// FindPeak3DEval must produce bit-identical results whether scans run
// inline (1-worker pool → serial fallback) or on the shared pool, for both
// kinds. Run under -race at GOMAXPROCS=1 and 4 by `make check`.
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

		var ser2, pool2 Profile
		var ser3, pool3 Profile3D
		var serAz, serPow, poolAz, poolPow float64
		var ser3D, pool3D Peak3D
		withPoolWidth(t, 1, func() {
			ev.Profile2DInto(&ser2, angles)
			ser3 = ev.Profile3D(angles[:96], pol)
			serAz, serPow = FindPeak2DEval(ev, SearchOptions{})
			ser3D = FindPeak3DEval(ev, SearchOptions{})
		})
		withPoolWidth(t, 4, func() {
			ev.Profile2DInto(&pool2, angles)
			pool3 = ev.Profile3D(angles[:96], pol)
			poolAz, poolPow = FindPeak2DEval(ev, SearchOptions{})
			pool3D = FindPeak3DEval(ev, SearchOptions{})
		})

		for i := range ser2.Power {
			if pool2.Power[i] != ser2.Power[i] {
				t.Fatalf("%v: Profile2DInto diverged at %d: %v != %v",
					kind, i, pool2.Power[i], ser2.Power[i])
			}
		}
		for i := range ser3.Power {
			for j := range ser3.Power[i] {
				if pool3.Power[i][j] != ser3.Power[i][j] {
					t.Fatalf("%v: Profile3D diverged at %d,%d", kind, i, j)
				}
			}
		}
		if poolAz != serAz || poolPow != serPow {
			t.Fatalf("%v: FindPeak2DEval pooled (%v,%v) != serial (%v,%v)",
				kind, poolAz, poolPow, serAz, serPow)
		}
		if pool3D != ser3D {
			t.Fatalf("%v: FindPeak3DEval pooled %+v != serial %+v", kind, pool3D, ser3D)
		}
	}
}

// TestPooledConcurrentScansEquivalence runs many evaluators' scans on the
// shared pool at once — the serving-path shape where jobs interleave at
// chunk granularity — and checks every result against the serial reference.
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
