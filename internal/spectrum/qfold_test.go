package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
)

// TestQFoldMatchesEvalAt pins the folded-Q handle the ML backend scores
// with: At must agree with EvalAt(KindQ) on the same snapshots within
// qExactSlack at random directions, on single- and mixed-wavelength
// sessions, at γ = 0, at |γ| near and at π/2 (w = z·cos γ → 0), and past
// ±π/2 (cos γ < 0). The worst difference is logged; it measures ~1e-15.
func TestQFoldMatchesEvalAt(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := testParams()
	sessions := []struct {
		name   string
		freqs  []float64
		scales int
	}{
		{"single", []float64{testFreq}, 1},
		{"mixed", []float64{testFreq, testFreq + 1.5e6, testFreq - 3e6}, 3},
	}
	var worst float64
	for _, s := range sessions {
		t.Run(s.name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				reader := randPoleReader(rng, p.Disk.Center)
				if trial%2 == 0 {
					reader = p.Disk.Center.Add(geom.V3(-2+rng.Float64(), 1+rng.Float64(), rng.Float64()-0.5))
				}
				snaps := synthHopping(p, reader, 288+rng.Intn(300), 0.1, s.freqs, rng)
				ev, err := NewEvaluator(snaps, p, KindQ)
				if err != nil {
					t.Fatal(err)
				}
				q, err := NewQFold(snaps, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(q.scales) != s.scales {
					t.Fatalf("folded %d aperture scales, want %d", len(q.scales), s.scales)
				}
				sc := ev.NewScratch()
				gammas := []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi/2 - 1e-9, -math.Pi/2 + 1e-7, 2.5, -3}
				for k := 0; k < 40; k++ {
					gammas = append(gammas, (rng.Float64()-0.5)*math.Pi)
				}
				for _, gamma := range gammas {
					for k := 0; k < 8; k++ {
						phi := rng.Float64()*4*math.Pi - math.Pi
						got, want := q.At(phi, gamma), ev.EvalAt(sc, phi, gamma)
						d := math.Abs(got - want)
						if !(d <= qExactSlack) {
							t.Fatalf("trial %d: At(%v, %v) = %v, EvalAt = %v (Δ=%v > %v)", trial, phi, gamma, got, want, d, qExactSlack)
						}
						worst = max(worst, d)
					}
				}
				q.Release()
			}
		})
	}
	t.Logf("worst |At − EvalAt| = %.2g", worst)
}

// TestQFoldErrors pins that NewQFold rejects what NewEvaluator rejects.
func TestQFoldErrors(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2, 0, 0), 10, 0, 0, nil)
	if _, err := NewQFold(snaps[:1], p); err == nil {
		t.Error("one snapshot accepted")
	}
	bad := append(snaps[:0:0], snaps...)
	bad[3].FrequencyHz = 0
	if _, err := NewQFold(bad, p); err == nil {
		t.Error("snapshot without a carrier accepted")
	}
	q, err := NewQFold(snaps, p)
	if err != nil {
		t.Fatal(err)
	}
	q.Release()
}
