package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
)

// randReader draws a reader position at a workable range from the disk.
func randReader(rng *rand.Rand, flat bool) geom.Vec3 {
	az := rng.Float64() * 2 * math.Pi
	r := 1.2 + rng.Float64()*2.5
	z := 0.0
	if !flat {
		z = rng.Float64()*2 - 1
	}
	return geom.V3(r*math.Cos(az), r*math.Sin(az), z)
}

// TestPeakCaptureBound is the route-table property test: across 500
// randomized sessions, every coarse-search route — harmonic Q and R on the
// uniform 2D grid, the hierarchical scanner for 3D Q, the dense scan for 3D
// R — must return the dense reference search's refined peak bit for bit.
// For the hierarchical scanner this is the capture bound: the Lipschitz
// retention threshold provably keeps the dense argmax cell in the evaluated
// set at every level (DESIGN.md §11 derives it); the harmonic routes hold
// it through shortlist-then-exact-rescore.
func TestPeakCaptureBound(t *testing.T) {
	p := testParams()
	opts := SearchOptions{}

	t.Run("2D", func(t *testing.T) {
		for _, kind := range []Kind{KindQ, KindR} {
			t.Run(kind.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(100 + int64(kind)))
				for trial := 0; trial < 210; trial++ {
					snaps := synth(p, randReader(rng, true), 20+rng.Intn(120), rng.Float64()*2, rng.Float64()*0.2, rng)
					ev, err := NewEvaluator(snaps, p, kind)
					if err != nil {
						t.Fatal(err)
					}
					wantAz, wantPow := FindPeak2DDense(ev, opts)
					if gotAz, gotPow := FindPeak2DEval(ev, opts); gotAz != wantAz || gotPow != wantPow {
						t.Fatalf("trial %d: routed (%v, %v) != dense (%v, %v)", trial, gotAz, gotPow, wantAz, wantPow)
					}
				}
			})
		}
	})

	t.Run("3D", func(t *testing.T) {
		for _, kind := range []Kind{KindQ, KindR} {
			t.Run(kind.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(200 + int64(kind)))
				for trial := 0; trial < 40; trial++ {
					snaps := synth3D(p, randReader(rng, false), 24+rng.Intn(40), rng.Float64()*0.15, rng)
					ev, err := NewEvaluator(snaps, p, kind)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := FindPeak3DEval(ev, opts), FindPeak3DDense(ev, opts); got != want {
						t.Fatalf("trial %d: routed %+v != dense %+v", trial, got, want)
					}
				}
			})
		}
	})
}

// TestHierarchicalDefaultOn3D pins the 3D routing: zero-valued
// SearchOptions on a KindQ evaluator take the hierarchical scanner (KindR
// the dense scan) and still match the dense reference answer bit for bit.
func TestHierarchicalDefaultOn3D(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	p := testParams()
	snaps := synth3D(p, geom.V3(-2.1, 0.7, 0.9), 60, 0.05, rng)
	for _, kind := range []Kind{KindQ, KindR} {
		ev, err := NewEvaluator(snaps, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		want := FindPeak3DDense(ev, SearchOptions{})
		ResetSearchStats()
		if got := FindPeak3DEval(ev, SearchOptions{}); got != want {
			t.Fatalf("%v: default %+v != dense %+v", kind, got, want)
		}
		wantStats := SearchStats{Hier3D: 1}
		if kind == KindR {
			wantStats = SearchStats{Dense3D: 1}
		}
		if st := SearchStatsSnapshot(); st != wantStats {
			t.Fatalf("%v: route counts %+v, want %+v", kind, st, wantStats)
		}
	}
}

// TestHierLevels pins the level chooser's guard rails: degenerate Lipschitz
// constants and tiny grids must fall back to level 0 (dense), and the
// default grids must engage the hierarchy.
func TestHierLevels(t *testing.T) {
	lf := 3.85 // testbed aperture scale 4πr/λ
	if got := hierLevels(0, 0.0087, 720, 1); got != 0 {
		t.Fatalf("zero Lipschitz constant: level %d, want 0", got)
	}
	if got := hierLevels(lf, 0.0087, 24, 1); got != 0 {
		t.Fatalf("tiny grid: level %d, want 0", got)
	}
	if got := hierLevels(lf, geom.Radians(0.5), 720, 1); got < 2 {
		t.Fatalf("default 2D grid: level %d, want >= 2", got)
	}
	if got := hierLevels(lf, geom.Radians(2)+geom.Radians(2), 180, 91); got < 1 {
		t.Fatalf("default 3D grid: level %d, want >= 1", got)
	}
}

// TestLatticeRows pins the polar lattice construction: the last row is a
// member at every level so the clamped boundary stays covered, and level 0
// is the full row set.
func TestLatticeRows(t *testing.T) {
	rows := latticeRows(91, 1)
	if rows[0] != 0 || rows[len(rows)-1] != 90 {
		t.Fatalf("level 1 rows misses an endpoint: %v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			t.Fatalf("rows not strictly ascending: %v", rows)
		}
		if rows[i]-rows[i-1] > 2 {
			t.Fatalf("level 1 gap exceeds 2 rows: %v", rows)
		}
	}
	if got := latticeRows(5, 0); len(got) != 5 {
		t.Fatalf("level 0 should keep every row, got %v", got)
	}
	if got := latticeRows(1, 3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-row grid: %v", got)
	}
}
