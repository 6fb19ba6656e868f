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
// passes land at least passShift minus the inner solves' own movement apart
// and the 1 cm stop never fires: only the pass cap ends the loop.
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

// TestPassLoopSolves counts the solves of calibrated 2D and 3D locates
// through all four entry points: one bootstrap plus at most three correction
// passes, stopping at the first pass that moves the position less than 1 cm,
// with the streamed locate solving exactly the batch locate's positions.
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
				for k := 1; k < n; k++ {
					prev, cur := ce.positions[k-1], ce.positions[k]
					moved := cur.DistanceTo(prev)
					if !fx.threeD {
						moved = cur.XY().DistanceTo(prev.XY())
					}
					last := k == n-1
					if !last && moved < 0.01 {
						t.Errorf("correction %d moved %.3g m < 1 cm, but the loop went on", k, moved)
					}
					if last && n < 4 && moved >= 0.01 {
						t.Errorf("correction %d moved %.3g m ≥ 1 cm, but the loop stopped", k, moved)
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
// position by at least 2 cm, the 1 cm stop never fires and a locate runs
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
