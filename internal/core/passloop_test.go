package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/testbed"
)

// countingEstimator wraps a solve backend and records the position of every
// solve a locate runs, in order. after, when set, runs after each solve with
// the count so far. A locate's passes solve one after another, so the
// recording needs no lock.
type countingEstimator struct {
	inner     core.Estimator
	positions []geom.Vec3
	after     func(solves int)
}

func (c *countingEstimator) Name() string { return c.inner.Name() }

func (c *countingEstimator) Solve2D(tags []core.EstimatorTag) (core.Solution2D, error) {
	sol, err := c.inner.Solve2D(tags)
	c.record(geom.V3(sol.Position.X, sol.Position.Y, 0))
	return sol, err
}

func (c *countingEstimator) Solve3D(tags []core.EstimatorTag) (core.Solution3D, error) {
	sol, err := c.inner.Solve3D(tags)
	c.record(sol.Position)
	return sol, err
}

func (c *countingEstimator) record(p geom.Vec3) {
	c.positions = append(c.positions, p)
	if c.after != nil {
		c.after(len(c.positions))
	}
}

// shiftingEstimator wraps a solve backend and moves the k-th solve of a
// locate (k = 0 for the bootstrap) k·passShift along x, so consecutive
// passes land at least passShift minus the inner solves' own movement apart.
// The 1 cm stop then never fires, and the predicted stop never does either
// while the inner solves move the first correction less than about
// passShift²/1 cm − passShift (20 cm): only the pass cap ends the loop.
type shiftingEstimator struct {
	inner  core.Estimator
	solves int
}

// passShift is the per-solve shift of shiftingEstimator, far above the few
// millimetres a correction pass moves the inner solve.
const passShift = 0.05

func (s *shiftingEstimator) Name() string { return s.inner.Name() }

func (s *shiftingEstimator) Solve2D(tags []core.EstimatorTag) (core.Solution2D, error) {
	sol, err := s.inner.Solve2D(tags)
	sol.Position.X += s.shift()
	return sol, err
}

func (s *shiftingEstimator) Solve3D(tags []core.EstimatorTag) (core.Solution3D, error) {
	sol, err := s.inner.Solve3D(tags)
	sol.Position.X += s.shift()
	return sol, err
}

func (s *shiftingEstimator) shift() float64 {
	d := float64(s.solves) * passShift
	s.solves++
	return d
}

// passLoopFixture is a calibrated session, so every locate runs correction
// passes after its bootstrap.
type passLoopFixture struct {
	name       string
	threeD     bool
	registered []core.SpinningTag
	obs        core.Observations
}

func passLoopFixtures(t *testing.T) []passLoopFixture {
	t.Helper()
	registered2D, obs2D := collectScenario(t, 42)
	rng := rand.New(rand.NewSource(11))
	sc := testbed.DefaultScenario(0.095, rng)
	sc.PlaceReader(geom.V3(-1.6, 1.2, 1.1))
	registered3D, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	return []passLoopFixture{
		{"2d", false, registered2D, obs2D},
		{"3d", true, registered3D, col.Obs},
	}
}

// locateVia runs one of the four entry points of the pass loop — batch or
// streamed, in the fixture's dimension — and returns the answer lifted to 3D.
func locateVia(t *testing.T, ctx context.Context, loc *core.Locator, fx passLoopFixture, streamed bool) (geom.Vec3, error) {
	t.Helper()
	if !streamed {
		if fx.threeD {
			res, err := loc.Locate3DContext(ctx, fx.registered, fx.obs)
			return res.Position, err
		}
		res, err := loc.Locate2DContext(ctx, fx.registered, fx.obs)
		return geom.V3(res.Position.X, res.Position.Y, 0), err
	}
	var st *core.Stream
	if fx.threeD {
		st = loc.NewStream3D(fx.registered)
	} else {
		st = loc.NewStream2D(fx.registered)
	}
	defer st.Close()
	if _, err := replay(fx.obs)(st.Report); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if stats := st.Stats(); stats.FallbackTags != 0 {
			t.Errorf("stream stats = %+v, want every tag streamed", stats)
		}
	}()
	if fx.threeD {
		res, err := st.Finalize3D(ctx, fx.obs)
		return res.Position, err
	}
	res, err := st.Finalize2D(ctx, fx.obs)
	return geom.V3(res.Position.X, res.Position.Y, 0), err
}

// correctionMoves returns the move of every correction solve into it: entry
// k-1 is how far correction k moved the previous solve's position, measured
// as the pass loop measures it (in the plane for 2D).
func correctionMoves(positions []geom.Vec3, threeD bool) []float64 {
	var moves []float64
	for k := 1; k < len(positions); k++ {
		prev, cur := positions[k-1], positions[k]
		moved := cur.DistanceTo(prev)
		if !threeD {
			moved = cur.XY().DistanceTo(prev.XY())
		}
		moves = append(moves, moved)
	}
	return moves
}

// stopsAfter reports whether the pass loop's rule ends the loop after the
// correction whose move is moves[k]: it moved < 1 cm, or, from the second
// correction on, it predicts a next move moves[k]²/moves[k-1] < 1 cm.
func stopsAfter(moves []float64, k int) bool {
	if moves[k] < 0.01 {
		return true
	}
	return k > 0 && moves[k]*moves[k]/moves[k-1] < 0.01
}

// TestPassLoopSolves counts the solves of calibrated 2D and 3D locates
// through all four entry points: one bootstrap plus at most three correction
// passes. Every correction but the last moved ≥ 1 cm and, from the second
// on, predicted a next move ≥ 1 cm; the last one stops on one of those
// rules or on the cap. The streamed locate solves exactly the batch
// locate's positions.
func TestPassLoopSolves(t *testing.T) {
	for _, fx := range passLoopFixtures(t) {
		var batch []geom.Vec3
		for _, streamed := range []bool{false, true} {
			name := fx.name + "/batch"
			if streamed {
				name = fx.name + "/stream"
			}
			t.Run(name, func(t *testing.T) {
				ce := &countingEstimator{inner: core.GridEstimator{}}
				pos, err := locateVia(t, t.Context(), core.NewLocator(core.Config{Estimator: ce}), fx, streamed)
				if err != nil {
					t.Fatal(err)
				}
				n := len(ce.positions)
				if n < 2 || n > 4 {
					t.Fatalf("%d solves, want 1 bootstrap + 1..3 corrections", n)
				}
				if pos != ce.positions[n-1] {
					t.Errorf("answer %v is not the last solve %v", pos, ce.positions[n-1])
				}
				moves := correctionMoves(ce.positions, fx.threeD)
				for k, moved := range moves {
					last := k == len(moves)-1
					if !last && stopsAfter(moves, k) {
						t.Errorf("correction %d moved %.3g m, which stops the loop, but it went on", k+1, moved)
					}
					if last && n < 4 && !stopsAfter(moves, k) {
						t.Errorf("correction %d moved %.3g m, which neither stops nor predicts a stop, but the loop stopped", k+1, moved)
					}
				}
				if !streamed {
					batch = ce.positions
				} else if !reflect.DeepEqual(ce.positions, batch) {
					t.Errorf("streamed solves %v differ from batch %v", ce.positions, batch)
				}
			})
		}
	}
}

// TestPassLoopCap pins the pass cap through all four entry points: with
// every solve shifted (shiftingEstimator) so each correction moves the
// position by at least 2 cm, neither stop fires and a locate runs
// exactly one bootstrap and three correction solves — a raised or lowered
// cap fails here.
func TestPassLoopCap(t *testing.T) {
	for _, fx := range passLoopFixtures(t) {
		for _, streamed := range []bool{false, true} {
			ce := &countingEstimator{inner: &shiftingEstimator{inner: core.GridEstimator{}}}
			if _, err := locateVia(t, t.Context(), core.NewLocator(core.Config{Estimator: ce}), fx, streamed); err != nil {
				t.Fatal(err)
			}
			if n := len(ce.positions); n != 1+3 {
				t.Errorf("%s streamed=%v: %d solves, want 1 bootstrap + 3 corrections", fx.name, streamed, n)
			}
			for k := 1; k < len(ce.positions); k++ {
				if moved := ce.positions[k].DistanceTo(ce.positions[k-1]); moved < 0.02 {
					t.Errorf("%s streamed=%v: correction %d moved %.3g m, want ≥ 2 cm", fx.name, streamed, k, moved)
				}
			}
		}
	}
}

// scriptedEstimator ignores its tags and answers the k-th solve of a locate
// (k = 0 for the bootstrap) with a fixed position: the origin of the script
// plus the first k moves, all along x. It lets a test choose every
// correction's move.
type scriptedEstimator struct {
	origin geom.Vec3
	moves  []float64
	solves int
}

func (s *scriptedEstimator) Name() string { return "scripted" }

func (s *scriptedEstimator) Solve2D([]core.EstimatorTag) (core.Solution2D, error) {
	p := s.next()
	return core.Solution2D{Position: p.XY()}, nil
}

func (s *scriptedEstimator) Solve3D([]core.EstimatorTag) (core.Solution3D, error) {
	p := s.next()
	return core.Solution3D{Position: p, Mirror: geom.V3(p.X, p.Y, -p.Z)}, nil
}

func (s *scriptedEstimator) next() geom.Vec3 {
	p := s.origin
	for _, m := range s.moves[:min(s.solves, len(s.moves))] {
		p.X += m
	}
	s.solves++
	return p
}

// TestPassLoopPredictedStop scripts each correction's move (in cm) and pins
// how many corrections run through all four entry points: the loop stops
// after a move < 1 cm, or from the second correction on when the predicted
// next move d₂²/d₁ is < 1 cm, and otherwise at the three-correction cap.
func TestPassLoopPredictedStop(t *testing.T) {
	cases := []struct {
		name        string
		moves       []float64 // cm, one per correction the script can serve
		corrections int
	}{
		{"predicted 0.4 cm stops", []float64{10, 2, 0.3}, 2},
		{"predicted 1.56 cm runs the third", []float64{4, 2.5, 0.3}, 3},
		{"predicted 1.125 cm runs the third", []float64{2, 1.5, 0.3}, 3},
		{"moved 0.5 cm stops", []float64{9, 0.5, 0.3}, 2},
		{"first move under 1 cm stops", []float64{0.8, 5, 5}, 1},
		{"non-contracting stops at the cap", []float64{3, 3, 3}, 3},
		{"diverging stops at the cap", []float64{2, 4, 8}, 3},
	}
	for _, fx := range passLoopFixtures(t) {
		origin := geom.V3(-1.5, 1.3, 0)
		if fx.threeD {
			origin.Z = 0.8
		}
		for _, tc := range cases {
			moves := make([]float64, len(tc.moves))
			for i, m := range tc.moves {
				moves[i] = m / 100
			}
			for _, streamed := range []bool{false, true} {
				se := &scriptedEstimator{origin: origin, moves: moves}
				pos, err := locateVia(t, t.Context(), core.NewLocator(core.Config{Estimator: se}), fx, streamed)
				if err != nil {
					t.Fatal(err)
				}
				if got := se.solves - 1; got != tc.corrections {
					t.Errorf("%s %s streamed=%v: %d corrections, want %d", fx.name, tc.name, streamed, got, tc.corrections)
				}
				want := origin
				for _, m := range moves[:tc.corrections] {
					want.X += m
				}
				if pos != want {
					t.Errorf("%s %s streamed=%v: answer %v, want the last solve %v", fx.name, tc.name, streamed, pos, want)
				}
			}
		}
	}
}

// TestPassLoopCanceledAfterBootstrap cancels the context from inside the
// bootstrap solve: every entry point must stop at the next pass boundary
// with context.Canceled, having solved once.
func TestPassLoopCanceledAfterBootstrap(t *testing.T) {
	for _, fx := range passLoopFixtures(t) {
		for _, streamed := range []bool{false, true} {
			ctx, cancel := context.WithCancel(t.Context())
			ce := &countingEstimator{inner: core.GridEstimator{}, after: func(int) { cancel() }}
			_, err := locateVia(t, ctx, core.NewLocator(core.Config{Estimator: ce}), fx, streamed)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s streamed=%v: err = %v, want context.Canceled", fx.name, streamed, err)
			}
			if len(ce.positions) != 1 {
				t.Errorf("%s streamed=%v: %d solves, want the bootstrap only", fx.name, streamed, len(ce.positions))
			}
			cancel()
		}
	}
}
