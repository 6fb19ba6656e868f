package estimate

import (
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
)

// solveFixture returns two synthesized disks of 576 reads each — the read
// count of one portal tag — seen from a planar (threeD false) or raised
// reader.
func solveFixture(threeD bool) []core.EstimatorTag {
	rng := rand.New(rand.NewSource(5))
	target := geom.V3(-1.7, 1.3, 0)
	if threeD {
		target.Z = 0.6
	}
	var etags []core.EstimatorTag
	for i, d := range defaultDisks(0)[:2] {
		etags = append(etags, synthTag(byte(i+1), d, target, 0.1, 576, rng))
	}
	return etags
}

// Steady-state allocation ceilings of one Solve2D/Solve3D on solveFixture.
// When each solve built a KindQ Evaluator and Scratch per tag it allocated
// 23 and 29 times; with pooled folds it allocates 8 and 14. The ceilings
// leave two allocations of room for pool misses, and sit below what
// unpooled folds would cost (about seven allocations per tag).
const (
	solve2DMaxAllocs = 10
	solve3DMaxAllocs = 16
)

// TestMLSolveSteadyStateAllocs pins the solve's allocation count: the
// folds' buffers must come from their pool.
func TestMLSolveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ml := NewML(Config{})
	tags2, tags3 := solveFixture(false), solveFixture(true)
	allocs2 := testing.AllocsPerRun(20, func() {
		if _, err := ml.Solve2D(tags2); err != nil {
			t.Fatal(err)
		}
	})
	allocs3 := testing.AllocsPerRun(20, func() {
		if _, err := ml.Solve3D(tags3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Solve2D %.0f allocs/op, Solve3D %.0f allocs/op", allocs2, allocs3)
	if allocs2 > solve2DMaxAllocs {
		t.Errorf("Solve2D allocated %.0f times per solve, want ≤ %d", allocs2, solve2DMaxAllocs)
	}
	if allocs3 > solve3DMaxAllocs {
		t.Errorf("Solve3D allocated %.0f times per solve, want ≤ %d", allocs3, solve3DMaxAllocs)
	}
}

func BenchmarkMLSolve2D(b *testing.B) {
	ml, tags := NewML(Config{}), solveFixture(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Solve2D(tags); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLSolve3D(b *testing.B) {
	ml, tags := NewML(Config{}), solveFixture(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Solve3D(tags); err != nil {
			b.Fatal(err)
		}
	}
}
