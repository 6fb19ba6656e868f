package spectrum

import (
	"math"
	"sync"
	"testing"

	gg "github.com/tagspin/tagspin/internal/geom"
)

// TestPlanCacheBitIdentical pins the cache's core soundness claim: a table
// served from the cache is bit-identical to a fresh build, across the
// chunk shapes the peak searches actually request
// (including i0 offsets and partial tails).
func TestPlanCacheBitIdentical(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	step := 2 * math.Pi / 720
	for _, tc := range []struct{ i0, n int }{
		{0, 64}, {64, 64}, {704, 16}, {0, 720}, {128, 100},
	} {
		want := make([]float64, 2*tc.n)
		buildUniformTrig(want[:tc.n], want[tc.n:], tc.i0, step)
		// First fill misses and builds; second fill must hit.
		for round := 0; round < 2; round++ {
			got := make([]float64, 2*tc.n)
			planCache.fill(got[:tc.n], got[tc.n:], planKey{i0: tc.i0, n: tc.n, step: step})
			for k := 0; k < 2*tc.n; k++ {
				if got[k] != want[k] {
					t.Fatalf("i0=%d n=%d round=%d: table differs at %d: %v != %v",
						tc.i0, tc.n, round, k, got[k], want[k])
				}
			}
		}
	}
	st := PlanCacheSnapshot()
	if st.Hits != 5 || st.Misses != 5 {
		t.Errorf("hits=%d misses=%d, want 5/5 (one miss then one hit per key)", st.Hits, st.Misses)
	}
	if st.Entries != 5 {
		t.Errorf("Entries = %d, want 5", st.Entries)
	}
	if st.HitRate != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", st.HitRate)
	}
}

// TestPlanCacheConcurrentFirstBuild races many goroutines on the same cold
// key under -race: every caller must receive the canonical bytes, and the
// cache must end up with exactly one entry for the key.
func TestPlanCacheConcurrentFirstBuild(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	const n = 256
	step := 2 * math.Pi / 1440
	want := make([]float64, 2*n)
	buildUniformTrig(want[:n], want[n:], 32, step)

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, 2*n)
			planCache.fill(got[:n], got[n:], planKey{i0: 32, n: n, step: step})
			for k := 0; k < 2*n; k++ {
				if got[k] != want[k] {
					errs <- "racing fill returned non-canonical table"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if st := PlanCacheSnapshot(); st.Entries != 1 {
		t.Errorf("Entries = %d after racing fills of one key, want 1", st.Entries)
	}
}

// TestPlanCacheShardCap checks the memory bound: a shard at capacity stops
// inserting but keeps building correct tables.
func TestPlanCacheShardCap(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	// Fill well past the total capacity; every n is a distinct key.
	step := 1e-3
	for n := planMinN; n < planMinN+planShards*planShardCap+64; n++ {
		buf := make([]float64, 2*n)
		planCache.fill(buf[:n], buf[n:], planKey{i0: 0, n: n, step: step})
	}
	st := PlanCacheSnapshot()
	if st.Entries > planShards*planShardCap {
		t.Errorf("Entries = %d, want ≤ %d", st.Entries, planShards*planShardCap)
	}
	// A post-cap key must still produce correct values (built directly).
	const n = 9999
	got := make([]float64, 2*n)
	planCache.fill(got[:n], got[n:], planKey{i0: 7, n: n, step: step})
	want := make([]float64, 2*n)
	buildUniformTrig(want[:n], want[n:], 7, step)
	for k := 0; k < 2*n; k++ {
		if got[k] != want[k] {
			t.Fatalf("post-cap fill differs at %d", k)
		}
	}
}

// TestPlanCacheHitRateOnRepeatedGrid is the acceptance-criteria scenario:
// repeated peak searches at the default grid must hit the cache almost
// always after warm-up.
func TestPlanCacheHitRateOnRepeatedGrid(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	p := testParams()
	snaps := synth(p, gg.V3(-2.2, 1.3, 0), 90, 0.7, 0, nil)
	ev, err := NewEvaluator(snaps, p, KindR)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		FindPeak2DEval(ev, SearchOptions{})
	}
	st := PlanCacheSnapshot()
	if total := st.Hits + st.Misses; total == 0 {
		t.Fatal("no plan-cache traffic from FindPeak2DEval")
	}
	if st.HitRate <= 0.9 {
		t.Errorf("hit rate %.3f after 20 repeated searches, want > 0.9 (hits=%d misses=%d)",
			st.HitRate, st.Hits, st.Misses)
	}
}
