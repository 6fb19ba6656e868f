package spectrum

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file holds the process-wide plan cache for uniform-grid trig tables.
//
// The uniform coarse grids the peak searches scan are keyed entirely by
// (first index, point count, step): every locate at the default 0.5° grid
// asks for exactly the same handful of tables — one per chunk of the
// coarse sweep — yet before this cache each Evaluator rebuilt them on every
// scan. The builder (math.Sincos per point) is a deterministic function of
// the key, so a cached table is bit-identical to a fresh build and caching
// cannot perturb results.
//
// The cache is sharded (planShards maps, each under its own RWMutex) so
// concurrent scans on different goroutines don't serialize on one lock,
// and bounded (planShardCap entries per shard; beyond that new keys are
// built directly and not stored — grids are operator-configured, so in
// practice the working set is a few dozen keys). Hits copy the canonical
// table into the caller's Scratch: a memcpy of ≤ a few KiB against a sincos
// per point; the coarse argmax, which only reads its table, takes the
// cached one itself (table). First-build races are benign — both racers
// compute identical bytes and the first store wins — which is what keeps
// the fill path free of per-key once-guards.

const (
	// planShards is the shard count (power of two) of the cache.
	planShards = 16
	// planShardCap bounds each shard's entry count; the cache stops
	// inserting (but keeps serving hits) once a shard is full.
	planShardCap = 256
	// planMinN is the smallest table worth caching: below it the map
	// lookup costs about as much as building the table.
	planMinN = 8
)

// planKey identifies one uniform-grid trig table: points φ_k = (i0+k)·step
// for k ∈ [0, n).
type planKey struct {
	i0, n int
	step  float64
}

func (k planKey) shard() uint64 {
	h := uint64(k.i0)*0x9e3779b97f4a7c15 ^ uint64(k.n)*0xbf58476d1ce4e5b9 ^ math.Float64bits(k.step)
	h ^= h >> 29
	return h & (planShards - 1)
}

// trigPlan is one cached table. The slices are immutable after insertion.
type trigPlan struct {
	sin, cos []float64
}

type planShard struct {
	mu sync.RWMutex
	m  map[planKey]*trigPlan
}

type planCacheT struct {
	shards [planShards]planShard
	hits   atomic.Uint64
	misses atomic.Uint64
	// nonUniformMiss counts trig-table builds the cache could not even be
	// asked about: non-uniform angle grids have no (i0, n, step) key, so
	// fillAngleTrig builds per-point tables directly. A climbing rate in
	// production means traffic is on dense angle-list profiles and the
	// plan cache's hit rate no longer describes most table builds.
	nonUniformMiss atomic.Uint64
}

var planCache planCacheT

// fill writes the table for key into dstSin/dstCos (both length key.n),
// serving from the cache when possible and inserting on miss.
func (pc *planCacheT) fill(dstSin, dstCos []float64, key planKey) {
	sin, cos := pc.table(key)
	copy(dstSin, sin)
	copy(dstCos, cos)
}

// table returns the table for key itself, building and inserting it on a
// miss. The slices are shared and must not be written; a caller that only
// reads them (the coarse argmax) needs no buffer of its own.
func (pc *planCacheT) table(key planKey) (sin, cos []float64) {
	sh := &pc.shards[key.shard()]
	sh.mu.RLock()
	pl := sh.m[key]
	sh.mu.RUnlock()
	if pl != nil {
		pc.hits.Add(1)
		return pl.sin, pl.cos
	}
	pc.misses.Add(1)
	backing := make([]float64, 2*key.n)
	pl = &trigPlan{sin: backing[:key.n:key.n], cos: backing[key.n:]}
	buildUniformTrig(pl.sin, pl.cos, key.i0, key.step)
	// First store wins; a racing builder produced identical bytes (the
	// builder is deterministic), so dropping the loser changes nothing.
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[planKey]*trigPlan)
	}
	if _, exists := sh.m[key]; !exists && len(sh.m) < planShardCap {
		sh.m[key] = pl
	}
	sh.mu.Unlock()
	return pl.sin, pl.cos
}

// PlanCacheStats is a point-in-time snapshot of the process-wide trig plan
// cache, shaped for expvar publication.
type PlanCacheStats struct {
	// Hits and Misses are cumulative fill counts since process start (or
	// the last ResetPlanCache).
	Hits, Misses uint64
	// NonUniformMiss counts cache-unservable table builds: non-uniform
	// angle grids carry no uniform-step key, so they bypass the cache
	// entirely. It is not part of HitRate (those builds never query the
	// cache); it exists so the bypass rate is visible next to the hit rate.
	NonUniformMiss uint64
	// Entries is the current number of cached tables across all shards.
	Entries int
	// HitRate is Hits / (Hits + Misses), 0 when no fills have happened.
	HitRate float64
}

// PlanCacheSnapshot reports the plan cache's counters and size.
func PlanCacheSnapshot() PlanCacheStats {
	st := PlanCacheStats{
		Hits:           planCache.hits.Load(),
		Misses:         planCache.misses.Load(),
		NonUniformMiss: planCache.nonUniformMiss.Load(),
	}
	for i := range planCache.shards {
		sh := &planCache.shards[i]
		sh.mu.RLock()
		st.Entries += len(sh.m)
		sh.mu.RUnlock()
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// ResetPlanCache empties the cache and zeroes its counters. It exists for
// tests and benchmark isolation; production code never needs it.
func ResetPlanCache() {
	for i := range planCache.shards {
		sh := &planCache.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
	planCache.hits.Store(0)
	planCache.misses.Store(0)
	planCache.nonUniformMiss.Store(0)
}
