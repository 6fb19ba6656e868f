package spectrum

import (
	"math"
	"math/rand"
	"testing"
)

// TestLargeAperture runs the routed searches and the folded Q on a 0.5 m
// disk, where the aperture scale w = 4πr/λ ≈ 19 needs about twice the
// harmonics of the testbed's 0.10 m disk (harmonicsNeeded(19.3) = 50):
// FindPeak2DEval and FindPeak3DEval must return their dense oracles' peaks
// bit for bit for Q and for R in robust and literal mode, on randomized
// single-channel and channel-hopping sessions, and QFold.At must stay within
// qExactSlack of EvalAt.
func TestLargeAperture(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := testParams()
	p.Disk.Radius = 0.5
	if w := 4 * math.Pi * p.Disk.Radius / testWave; w < 19 {
		t.Fatalf("aperture scale %v, want a large disk", w)
	}
	kinds := []struct {
		name    string
		kind    Kind
		literal bool
	}{{"Q", KindQ, false}, {"R", KindR, false}, {"literal-R", KindR, true}}
	opts := SearchOptions{}
	var worst float64
	for trial := 0; trial < 6; trial++ {
		flat := trial%2 == 0
		reader := randReader(rng, flat)
		freqs := []float64{testFreq}
		if trial >= 4 {
			freqs = []float64{testFreq, testFreq + 1.5e6, testFreq - 3e6}
		}
		snaps := synthHopping(p, reader, 120+rng.Intn(200), 0.1, freqs, rng)
		for _, k := range kinds {
			pk := p
			pk.LiteralReference = k.literal
			ev, err := NewEvaluator(snaps, pk, k.kind)
			if err != nil {
				t.Fatal(err)
			}
			if flat {
				gotAz, gotPow := FindPeak2DEval(ev, opts)
				if wantAz, wantPow := FindPeak2DDense(ev, opts); gotAz != wantAz || gotPow != wantPow {
					t.Fatalf("trial %d %s 2D: routed (%v, %v) != dense (%v, %v)", trial, k.name, gotAz, gotPow, wantAz, wantPow)
				}
				continue
			}
			if got, want := FindPeak3DEval(ev, opts), FindPeak3DDense(ev, opts); got != want {
				t.Fatalf("trial %d %s 3D: routed %+v != dense %+v", trial, k.name, got, want)
			}
		}
		q, err := NewQFold(snaps, p)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(snaps, p, KindQ)
		if err != nil {
			t.Fatal(err)
		}
		sc := ev.NewScratch()
		for k := 0; k < 200; k++ {
			phi, gamma := rng.Float64()*2*math.Pi, (rng.Float64()-0.5)*math.Pi
			got, want := q.At(phi, gamma), ev.EvalAt(sc, phi, gamma)
			if d := math.Abs(got - want); !(d <= qExactSlack) {
				t.Fatalf("trial %d: At(%v, %v) = %v, EvalAt = %v (Δ=%v > %v)", trial, phi, gamma, got, want, d, qExactSlack)
			}
			worst = max(worst, math.Abs(got-want))
		}
		q.Release()
	}
	t.Logf("worst |At − EvalAt| = %.2g at r = %v m", worst, p.Disk.Radius)
}
