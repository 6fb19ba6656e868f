package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
)

// accumKinds enumerates the (kind, literal) combinations the accumulator
// streams differently.
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

// TestAccumulatorCoarseProfileBitIdentical pins the tentpole equivalence:
// the streamed per-cell sums, finished after the last Add, must reproduce
// the batch Profile2D over the same uniform angles bit for bit on the exact
// path — same terms, same trig table values, same per-cell snapshot-order
// summation.
func TestAccumulatorCoarseProfileBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 60, 0.8, 0.05, rng)
	for _, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			pp := p
			pp.LiteralReference = tc.literal
			a, err := NewAccumulator2D(pp, tc.kind, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			feedAccumulator(t, a, snaps)
			got, err := a.CoarseProfile()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(snaps, pp, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			want := ev.Profile2D(got.Angles)
			for i := range got.Power {
				if got.Power[i] != want.Power[i] {
					t.Fatalf("cell %d: streamed %v != batch %v", i, got.Power[i], want.Power[i])
				}
			}
		})
	}
}

// TestAccumulatorCoarseProfileFastWithinBudget bounds the fast-trig
// streamed profile against the exact batch profile: the FastSincos phasors
// and the recurrence candidate table must stay inside the documented ≲1e-6
// envelope (the batch fast path obeys the same budget, so streamed-fast
// inherits it).
func TestAccumulatorCoarseProfileFastWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 60, 0.8, 0.05, rng)
	for _, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			pp := p
			pp.LiteralReference = tc.literal
			a, err := NewAccumulator2D(pp, tc.kind, SearchOptions{}, WithFastTrig())
			if err != nil {
				t.Fatal(err)
			}
			feedAccumulator(t, a, snaps)
			got, err := a.CoarseProfile()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(snaps, pp, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			want := ev.Profile2D(got.Angles)
			for i := range got.Power {
				if d := math.Abs(got.Power[i] - want.Power[i]); d > 1.5e-6 {
					t.Fatalf("cell %d: streamed fast %v vs exact %v (Δ=%v)", i, got.Power[i], want.Power[i], d)
				}
			}
		})
	}
}

// TestAccumulatorFindPeak2DBitIdentical pins the end-to-end finalize: for
// ordered sessions of up to coarseTermLimit snapshots the streamed coarse
// argmax plus shared refinement must return the very same bits as the batch
// FindPeak2DEval — in both trig modes, since the accumulator's full trig
// table reseeds at the same 64-aligned points as the batch chunked fills.
func TestAccumulatorFindPeak2DBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 60, 0.8, 0.05, rng)
	for _, tc := range accumKinds {
		for _, fast := range []bool{false, true} {
			name := tc.name
			if fast {
				name += "-fast"
			}
			t.Run(name, func(t *testing.T) {
				pp := p
				pp.LiteralReference = tc.literal
				var eo []EvalOption
				if fast {
					eo = append(eo, WithFastTrig())
				}
				a, err := NewAccumulator2D(pp, tc.kind, SearchOptions{}, eo...)
				if err != nil {
					t.Fatal(err)
				}
				feedAccumulator(t, a, snaps)
				if a.BatchFallback() {
					t.Fatalf("%d-snapshot session reports a batch fallback", len(snaps))
				}
				gotAz, gotPow, err := a.FindPeak2D()
				if err != nil {
					t.Fatal(err)
				}
				ev, err := NewEvaluator(snaps, pp, tc.kind, eo...)
				if err != nil {
					t.Fatal(err)
				}
				wantAz, wantPow := FindPeak2DEval(ev, SearchOptions{})
				if gotAz != wantAz || gotPow != wantPow {
					t.Fatalf("streamed peak (%v, %v) != batch (%v, %v)", gotAz, gotPow, wantAz, wantPow)
				}
			})
		}
	}
}

// TestAccumulatorFindPeak3DBitIdentical is the 3D version of the finalize
// pin, on an enlarged grid to keep the scan quick.
func TestAccumulatorFindPeak3DBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := testParams()
	snaps := synth3D(p, geom.V3(-2.1, 0.4, 0.98), 60, 0.05, rng)
	so := SearchOptions{CoarseStep: geom.Radians(1), CoarsePolarStep: geom.Radians(5)}
	for _, tc := range accumKinds {
		for _, fast := range []bool{false, true} {
			name := tc.name
			if fast {
				name += "-fast"
			}
			t.Run(name, func(t *testing.T) {
				pp := p
				pp.LiteralReference = tc.literal
				var eo []EvalOption
				if fast {
					eo = append(eo, WithFastTrig())
				}
				a, err := NewAccumulator3D(pp, tc.kind, so, eo...)
				if err != nil {
					t.Fatal(err)
				}
				feedAccumulator(t, a, snaps)
				got, err := a.FindPeak3D()
				if err != nil {
					t.Fatal(err)
				}
				ev, err := NewEvaluator(snaps, pp, tc.kind, eo...)
				if err != nil {
					t.Fatal(err)
				}
				want := FindPeak3DEval(ev, so)
				if got != want {
					t.Fatalf("streamed 3D peak %+v != batch %+v", got, want)
				}
			})
		}
	}
}

// TestAccumulatorCoarseProfile3DBitIdentical pins the streamed 3D profile
// against the batch Profile3D over the same grid.
func TestAccumulatorCoarseProfile3DBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := testParams()
	snaps := synth3D(p, geom.V3(-2.1, 0.4, 0.98), 48, 0.05, rng)
	so := SearchOptions{CoarseStep: geom.Radians(1), CoarsePolarStep: geom.Radians(5)}
	for _, kind := range []Kind{KindQ, KindR} {
		a, err := NewAccumulator3D(p, kind, so)
		if err != nil {
			t.Fatal(err)
		}
		feedAccumulator(t, a, snaps)
		got, err := a.CoarseProfile3D()
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		want := ev.Profile3D(got.Azimuths, got.Polars)
		for i := range got.Power {
			for j := range got.Power[i] {
				if got.Power[i][j] != want.Power[i][j] {
					t.Fatalf("%v cell (%d,%d): streamed %v != batch %v", kind, i, j, got.Power[i][j], want.Power[i][j])
				}
			}
		}
	}
}

// TestAccumulatorLargeSessionFallback proves the bit-identity contract
// survives sessions past coarseTermLimit: there the batch coarse pass uses
// the strided subset, which streaming cannot reproduce, so FindPeak must
// fall back to the batch search rather than return a near-miss.
func TestAccumulatorLargeSessionFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), coarseTermLimit+40, 0.8, 0.05, rng)
	for _, kind := range []Kind{KindQ, KindR} {
		a, err := NewAccumulator2D(p, kind, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		feedAccumulator(t, a, snaps)
		if !a.BatchFallback() {
			t.Fatalf("%v: %d-snapshot session does not report its batch fallback", kind, len(snaps))
		}
		gotAz, gotPow, err := a.FindPeak2D()
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		wantAz, wantPow := FindPeak2DEval(ev, SearchOptions{})
		if gotAz != wantAz || gotPow != wantPow {
			t.Fatalf("%v: streamed (%v, %v) != batch (%v, %v)", kind, gotAz, gotPow, wantAz, wantPow)
		}
	}
}

// TestPooledAccumulatorEquivalence is the pool-path pin for the streaming
// folds: Add and the robust finish chunk through the shared pool on wide
// grids, and must produce the same bits as the inline serial path. Run
// under -race at GOMAXPROCS=1 and 4 by `make check`.
func TestPooledAccumulatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := testParams()
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 50, 0.8, 0.05, rng)
	for _, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			pp := p
			pp.LiteralReference = tc.literal
			run := func() (Profile, float64, float64) {
				a, err := NewAccumulator2D(pp, tc.kind, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				feedAccumulator(t, a, snaps)
				prof, err := a.CoarseProfile()
				if err != nil {
					t.Fatal(err)
				}
				az, pow, err := a.FindPeak2D()
				if err != nil {
					t.Fatal(err)
				}
				return prof, az, pow
			}
			var serProf, poolProf Profile
			var serAz, serPow, poolAz, poolPow float64
			withPoolWidth(t, 1, func() { serProf, serAz, serPow = run() })
			withPoolWidth(t, 4, func() { poolProf, poolAz, poolPow = run() })
			for i := range serProf.Power {
				if serProf.Power[i] != poolProf.Power[i] {
					t.Fatalf("cell %d: serial %v != pooled %v", i, serProf.Power[i], poolProf.Power[i])
				}
			}
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
	if _, err := a.CoarseProfile(); err == nil {
		t.Error("empty accumulator produced a profile")
	}
	if _, err := a.CoarseProfile3D(); err == nil {
		t.Error("2D accumulator produced a 3D profile")
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
	if _, err := a3.CoarseProfile(); err == nil {
		t.Error("3D accumulator produced a 2D profile")
	}
	if _, _, err := a3.FindPeak2D(); err == nil {
		t.Error("3D accumulator ran a 2D search")
	}
	bad := Params{}
	if _, err := NewAccumulator2D(bad, KindQ, SearchOptions{}); err == nil {
		t.Error("invalid params accepted")
	}
}
