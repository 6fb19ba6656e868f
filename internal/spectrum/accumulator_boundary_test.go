package spectrum

import (
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
)

// TestAccumulatorCoarseTermLimitBoundary walks the streamed-vs-batch
// contract across the coarseTermLimit seam for every finalize mode: up to
// the limit the batch coarse pass scores every term, past it a strided
// subset, and all four session sizes must return the batch search's bits.
func TestAccumulatorCoarseTermLimitBoundary(t *testing.T) {
	p := testParams()
	counts := []int{coarseTermLimit - 1, coarseTermLimit, coarseTermLimit + 1, coarseTermLimit + 16}
	for i, tc := range accumKinds {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(60 + int64(i)))
			for _, n := range counts {
				snaps := synth(p, geom.V3(-2.2, 1.3, 0), n, 0.8, 0.05, rng)
				pp := p
				pp.LiteralReference = tc.literal
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
					t.Fatalf("%d snapshots: streamed (%v, %v) != batch (%v, %v)",
						n, gotAz, gotPow, wantAz, wantPow)
				}
			}
		})
	}
}

// TestAccumulator3DCoarseTermLimitBoundary is the 3D seam walk, on the
// enlarged test grid to keep the dense reference scans quick.
func TestAccumulator3DCoarseTermLimitBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := testParams()
	so := SearchOptions{CoarseStep: geom.Radians(1), CoarsePolarStep: geom.Radians(5)}
	for _, n := range []int{coarseTermLimit, coarseTermLimit + 1} {
		snaps := synth3D(p, geom.V3(-2.1, 0.4, 0.98), n, 0.05, rng)
		for _, kind := range []Kind{KindQ, KindR} {
			a, err := NewAccumulator3D(p, kind, so)
			if err != nil {
				t.Fatal(err)
			}
			feedAccumulator(t, a, snaps)
			got, err := a.FindPeak3D()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(snaps, p, kind)
			if err != nil {
				t.Fatal(err)
			}
			if want := FindPeak3DEval(ev, so); got != want {
				t.Fatalf("%v, %d snapshots: streamed %+v != batch %+v", kind, n, got, want)
			}
		}
	}
}

// TestAccumulatorFallbackEngagesMidSession pins the crossing itself: a
// session finalized at exactly coarseTermLimit, then given one more Add,
// must drop its cached Evaluator so the next finalize scores the strided
// coarse subset — both answers matching their batch counterparts.
func TestAccumulatorFallbackEngagesMidSession(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	p := testParams()
	snaps := synth(p, geom.V3(1.9, -1.4, 0), coarseTermLimit+1, 0.8, 0.05, rng)
	a, err := NewAccumulator2D(p, KindQ, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	feedAccumulator(t, a, snaps[:coarseTermLimit])
	gotAz, gotPow, err := a.FindPeak2D()
	if err != nil {
		t.Fatal(err)
	}
	evAt, err := NewEvaluator(snaps[:coarseTermLimit], p, KindQ)
	if err != nil {
		t.Fatal(err)
	}
	wantAz, wantPow := FindPeak2DEval(evAt, SearchOptions{})
	if gotAz != wantAz || gotPow != wantPow {
		t.Fatalf("at the limit: streamed (%v, %v) != batch (%v, %v)", gotAz, gotPow, wantAz, wantPow)
	}

	if err := a.Add(snaps[coarseTermLimit]); err != nil {
		t.Fatal(err)
	}
	gotAz, gotPow, err = a.FindPeak2D()
	if err != nil {
		t.Fatal(err)
	}
	evPast, err := NewEvaluator(snaps, p, KindQ)
	if err != nil {
		t.Fatal(err)
	}
	wantAz, wantPow = FindPeak2DEval(evPast, SearchOptions{})
	if gotAz != wantAz || gotPow != wantPow {
		t.Fatalf("past the limit: streamed (%v, %v) != batch (%v, %v)", gotAz, gotPow, wantAz, wantPow)
	}
}
