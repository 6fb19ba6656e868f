package spectrum

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/phase"
)

// jitteredAngles builds a sorted non-uniform candidate grid: the uniform
// n-cell circle with each point displaced by up to jitter·step. Sorting
// keeps the grid monotone (like a real survey grid) without restoring
// uniform spacing.
func jitteredAngles(n int, jitter float64, rng *rand.Rand) []float64 {
	step := 2 * math.Pi / float64(n)
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = (float64(i) + jitter*(2*rng.Float64()-1)) * step
	}
	sort.Float64s(angles)
	return angles
}

// synthJittered is synth with non-uniform sampling instants: each snapshot's
// time is displaced by up to tJitter of the nominal spacing, modeling the
// jittered-ω spindisk actuator. The aperture angles ω·t_i inherit the
// jitter, so the session exercises the non-uniform-aperture fold.
func synthJittered(p Params, reader geom.Vec3, n int, sigma, tJitter float64, rng *rand.Rand) []phase.Snapshot {
	period := p.Disk.Period()
	snaps := make([]phase.Snapshot, 0, n)
	for i := 0; i < n; i++ {
		f := (float64(i) + tJitter*(2*rng.Float64()-1)) / float64(n)
		if f < 0 {
			f = 0
		}
		tm := time.Duration(float64(period) * f)
		tagPos := p.Disk.TagPosition(tm)
		ph := 4*math.Pi*tagPos.DistanceTo(reader)/testWave + 0.8
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

// TestNUFFTArgmaxBitIdentity is the routing contract: FindPeak2DAnglesEval
// (the synthesized route) must return FindPeak2DAnglesDense's (azimuth,
// power) bit for bit, for both kinds, across jittered grids from 48 to 720
// cells and randomized sessions.
func TestNUFFTArgmaxBitIdentity(t *testing.T) {
	p := testParams()
	grids := []int{48, 127, 128, 129, 720}
	for _, kind := range []Kind{KindQ, KindR} {
		name := "Q"
		if kind == KindR {
			name = "R"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(510 + int64(kind)))
			for trial := 0; trial < 25; trial++ {
				snaps := synth(p, randReader(rng, true), 20+rng.Intn(120), rng.Float64()*2, rng.Float64()*0.2, rng)
				ev, err := NewEvaluator(snaps, p, kind)
				if err != nil {
					t.Fatal(err)
				}
				n := grids[trial%len(grids)]
				angles := jitteredAngles(n, 0.35, rng)
				gotAz, gotPow := FindPeak2DAnglesEval(ev, angles, SearchOptions{})
				wantAz, wantPow := FindPeak2DAnglesDense(ev, angles, SearchOptions{})
				if gotAz != wantAz || gotPow != wantPow {
					t.Fatalf("trial %d, %d cells: synthesized (%v, %v) != dense (%v, %v)",
						trial, n, gotAz, gotPow, wantAz, wantPow)
				}
			}
		})
	}
}

// TestNUFFTJitteredOmegaSession repeats the bit-identity check on sessions
// whose sampling instants are themselves jittered (a wobbling actuator):
// non-uniform apertures AND a non-uniform candidate grid together.
func TestNUFFTJitteredOmegaSession(t *testing.T) {
	p := testParams()
	for _, kind := range []Kind{KindQ, KindR} {
		name := "Q"
		if kind == KindR {
			name = "R"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(520 + int64(kind)))
			for trial := 0; trial < 15; trial++ {
				snaps := synthJittered(p, randReader(rng, true), 40+rng.Intn(80), rng.Float64()*0.15, 0.4, rng)
				ev, err := NewEvaluator(snaps, p, kind)
				if err != nil {
					t.Fatal(err)
				}
				angles := jitteredAngles(720, 0.35, rng)
				gotAz, gotPow := FindPeak2DAnglesEval(ev, angles, SearchOptions{})
				wantAz, wantPow := FindPeak2DAnglesDense(ev, angles, SearchOptions{})
				if gotAz != wantAz || gotPow != wantPow {
					t.Fatalf("trial %d: synthesized (%v, %v) != dense (%v, %v)",
						trial, gotAz, gotPow, wantAz, wantPow)
				}
			}
		})
	}
}

// TestAnglesRoutingCounters drives both kinds through the angle-grid entry
// points and checks exactly one routing counter moves — the expvar surface
// operators use to confirm which path served traffic. Angle grids share the
// uniform grid's synthesized route and its counters.
func TestAnglesRoutingCounters(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(530))
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 60, 0.8, 0.05, rng)
	angles := jitteredAngles(720, 0.35, rng)
	cases := []struct {
		name string
		kind Kind
		want SearchStats
	}{
		{"Q-auto", KindQ, SearchStats{HarmonicQ2D: 1}},
		{"R-auto", KindR, SearchStats{HarmonicR2D: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := NewEvaluator(snaps, p, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			ResetSearchStats()
			FindPeak2DAnglesEval(ev, angles, SearchOptions{})
			if st := SearchStatsSnapshot(); st != tc.want {
				t.Fatalf("route counts %+v, want %+v", st, tc.want)
			}
		})
	}

	t.Run("profile", func(t *testing.T) {
		var prof Profile
		for _, kind := range []Kind{KindQ, KindR} {
			ev, err := NewEvaluator(snaps, p, kind)
			if err != nil {
				t.Fatal(err)
			}
			ResetSearchStats()
			ev.Profile2DIntoSynth(&prof, angles)
			if st, want := SearchStatsSnapshot(), (SearchStats{ProfileSynth: 1}); st != want {
				t.Fatalf("%v: route counts %+v, want %+v", kind, st, want)
			}
		}
	})
}

// TestAccumulatorAnglesBitIdentity pins the streamed angle-grid finalize
// for every accumulator mode and session length: it must return the batch
// FindPeak2DAnglesEval's bits over the same grid.
func TestAccumulatorAnglesBitIdentity(t *testing.T) {
	p := testParams()
	for i, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(550 + int64(i)))
			angles := jitteredAngles(720, 0.35, rng)
			pp := p
			pp.LiteralReference = tc.literal
			for _, n := range accumLengths {
				snaps := synth(p, randReader(rng, true), n, 0.8, 0.05, rng)
				a, err := NewAccumulator2DAngles(pp, tc.kind, angles, SearchOptions{})
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
				wantAz, wantPow := FindPeak2DAnglesEval(ev, angles, SearchOptions{})
				if gotAz != wantAz || gotPow != wantPow {
					t.Fatalf("%d snapshots: streamed (%v, %v) != batch (%v, %v)",
						n, gotAz, gotPow, wantAz, wantPow)
				}
			}
		})
	}
}

// TestAccumulatorAnglesValidation covers the construction edges of the
// angle-grid accumulator.
func TestAccumulatorAnglesValidation(t *testing.T) {
	if _, err := NewAccumulator2DAngles(testParams(), KindQ, nil, SearchOptions{}); err == nil {
		t.Fatal("empty grid must be rejected")
	}
}

// TestHalfPowerBeamwidthChecked pins the non-uniform-grid guard: the HPBW
// walk assumes uniform spacing, so non-uniform Angles must return the typed
// error (and NaN) instead of a silently wrong width.
func TestHalfPowerBeamwidthChecked(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.8, 0, 0), 80, 1.3, 0, nil)
	uniform, err := Compute2D(snaps, p, KindQ, UniformAngles(720))
	if err != nil {
		t.Fatal(err)
	}
	w, err := uniform.HalfPowerBeamwidthChecked()
	if err != nil {
		t.Fatalf("uniform grid: unexpected error %v", err)
	}
	if w != uniform.HalfPowerBeamwidth() {
		t.Fatalf("checked width %v != unchecked %v", w, uniform.HalfPowerBeamwidth())
	}

	rng := rand.New(rand.NewSource(570))
	jittered, err := Compute2D(snaps, p, KindQ, jitteredAngles(720, 0.35, rng))
	if err != nil {
		t.Fatal(err)
	}
	w, err = jittered.HalfPowerBeamwidthChecked()
	if !errors.Is(err, ErrNonUniformAngles) {
		t.Fatalf("non-uniform grid: error = %v, want ErrNonUniformAngles", err)
	}
	if !math.IsNaN(w) {
		t.Fatalf("non-uniform grid: width = %v, want NaN", w)
	}
	if !math.IsNaN(jittered.HalfPowerBeamwidth()) {
		t.Fatal("unchecked HPBW on a non-uniform grid must be NaN")
	}

	tiny := Profile{Angles: []float64{0}, Power: []float64{1}}
	if w, err := tiny.HalfPowerBeamwidthChecked(); err != nil || !math.IsNaN(w) {
		t.Fatalf("degenerate profile: (%v, %v), want (NaN, nil)", w, err)
	}
}

// TestAnglesApproxUniform covers the guard's classifier directly.
func TestAnglesApproxUniform(t *testing.T) {
	if !anglesApproxUniform(UniformAngles(360)) {
		t.Fatal("uniform grid classified non-uniform")
	}
	if !anglesApproxUniform([]float64{0, 1}) {
		t.Fatal("2-point grids are trivially uniform")
	}
	rng := rand.New(rand.NewSource(571))
	if anglesApproxUniform(jitteredAngles(360, 0.35, rng)) {
		t.Fatal("jittered grid classified uniform")
	}
}

// TestNonUniformMissCounter pins the plan-cache bypass counter: non-uniform
// trig builds must count, and ResetPlanCache must zero the counter.
func TestNonUniformMissCounter(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(572))
	angles := jitteredAngles(720, 0.35, rng)
	snaps := synth(p, geom.V3(-2.2, 1.3, 0), 60, 0.8, 0.05, rng)
	ev, err := NewEvaluator(snaps, p, KindQ)
	if err != nil {
		t.Fatal(err)
	}

	ResetPlanCache()
	var prof Profile
	ev.Profile2DInto(&prof, angles)
	if st := PlanCacheSnapshot(); st.NonUniformMiss == 0 {
		t.Fatal("dense non-uniform scan did not count a bypass")
	}

	ResetPlanCache()
	if st := PlanCacheSnapshot(); st.NonUniformMiss != 0 {
		t.Fatalf("reset left NonUniformMiss at %d", st.NonUniformMiss)
	}
}
