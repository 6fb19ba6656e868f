package spectrum

import (
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/sched"
)

// accumKinds enumerates the (kind, literal) combinations the finalize
// searches differently.
var accumKinds = []struct {
	name    string
	kind    Kind
	literal bool
}{
	{"Q", KindQ, false},
	{"R-robust", KindR, false},
	{"R-literal", KindR, true},
}

// feedAccumulator streams snapshots through Add in order.
func feedAccumulator(t *testing.T, a *Accumulator, snaps []phase.Snapshot) {
	t.Helper()
	for _, s := range snaps {
		if err := a.Add(s); err != nil {
			t.Fatal(err)
		}
	}
}

// accumLengths spans the session lengths the finalize must serve: short
// sessions whose coarse pass scores every term, both sides of the
// coarseTermLimit seam, and the ≥288-read sessions real spins produce.
var accumLengths = []int{24, coarseTermLimit - 1, coarseTermLimit, coarseTermLimit + 1, 288, 447}

// TestAccumulatorFindPeak2DBitIdentical pins the end-to-end finalize: for
// ordered sessions of every length the streamed finalize must return the
// very same bits as the batch FindPeak2DEval over the same snapshots.
func TestAccumulatorFindPeak2DBitIdentical(t *testing.T) {
	p := testParams()
	for _, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			pp := p
			pp.LiteralReference = tc.literal
			for _, n := range accumLengths {
				snaps := synth(pp, randReader(rng, true), n, 0.8, 0.05, rng)
				a, err := NewAccumulator2D(pp, tc.kind, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				feedAccumulator(t, a, snaps)
				gotAz, gotPow, err := a.FindPeak2D()
				if err != nil {
					t.Fatal(err)
				}
				ev, err := NewEvaluator(snaps, pp, tc.kind)
				if err != nil {
					t.Fatal(err)
				}
				wantAz, wantPow := FindPeak2DEval(ev, SearchOptions{})
				if gotAz != wantAz || gotPow != wantPow {
					t.Fatalf("%d snapshots: streamed peak (%v, %v) != batch (%v, %v)", n, gotAz, gotPow, wantAz, wantPow)
				}
			}
		})
	}
}

// TestAccumulatorFindPeak3DBitIdentical is the 3D version of the finalize
// pin, on an enlarged grid to keep the scan quick.
func TestAccumulatorFindPeak3DBitIdentical(t *testing.T) {
	p := testParams()
	so := SearchOptions{CoarseStep: geom.Radians(1), CoarsePolarStep: geom.Radians(5)}
	for _, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(10))
			pp := p
			pp.LiteralReference = tc.literal
			for _, n := range accumLengths {
				snaps := synth3D(pp, randReader(rng, false), n, 0.05, rng)
				a, err := NewAccumulator3D(pp, tc.kind, so)
				if err != nil {
					t.Fatal(err)
				}
				feedAccumulator(t, a, snaps)
				got, err := a.FindPeak3D()
				if err != nil {
					t.Fatal(err)
				}
				ev, err := NewEvaluator(snaps, pp, tc.kind)
				if err != nil {
					t.Fatal(err)
				}
				if want := FindPeak3DEval(ev, so); got != want {
					t.Fatalf("%d snapshots: streamed 3D peak %+v != batch %+v", n, got, want)
				}
			}
		})
	}
}

// TestPooledAccumulatorEquivalence is the pool-path pin for the streaming
// accumulator: Add never submits pool work, and the finalize returns the
// same bits whether the batch search runs serially or on a 4-wide pool.
// Run under -race at GOMAXPROCS=1 and 4 by `make check`.
func TestPooledAccumulatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 288, 0.8, 0.05, rng)
	for _, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			pp := p
			pp.LiteralReference = tc.literal
			run := func() (float64, float64) {
				a, err := NewAccumulator2D(pp, tc.kind, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				before := sched.PoolStats().JobsRun
				feedAccumulator(t, a, snaps)
				if jobs := sched.PoolStats().JobsRun - before; jobs != 0 {
					t.Fatalf("Add submitted %d pool jobs, want 0", jobs)
				}
				az, pow, err := a.FindPeak2D()
				if err != nil {
					t.Fatal(err)
				}
				return az, pow
			}
			var serAz, serPow, poolAz, poolPow float64
			withPoolWidth(t, 1, func() { serAz, serPow = run() })
			withPoolWidth(t, 4, func() { poolAz, poolPow = run() })
			if serAz != poolAz || serPow != poolPow {
				t.Fatalf("peak: serial (%v, %v) != pooled (%v, %v)", serAz, serPow, poolAz, poolPow)
			}
		})
	}
}

// TestAccumulatorErrors covers the misuse surface: too few snapshots, bad
// snapshots, and 2D/3D cross-calls.
func TestAccumulatorErrors(t *testing.T) {
	p := testParams()
	a, err := NewAccumulator2D(p, KindQ, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.FindPeak2D(); err == nil {
		t.Error("empty accumulator produced a peak")
	}
	if _, err := a.FindPeak3D(); err == nil {
		t.Error("2D accumulator ran a 3D search")
	}
	if err := a.Add(phase.Snapshot{}); err == nil {
		t.Error("zero-frequency snapshot accepted")
	}
	a3, err := NewAccumulator3D(p, KindQ, SearchOptions{CoarseStep: geom.Radians(2), CoarsePolarStep: geom.Radians(10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a3.FindPeak2D(); err == nil {
		t.Error("3D accumulator ran a 2D search")
	}
	bad := Params{}
	if _, err := NewAccumulator2D(bad, KindQ, SearchOptions{}); err == nil {
		t.Error("invalid params accepted")
	}
}
