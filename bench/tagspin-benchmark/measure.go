package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/sched"
	"github.com/tagspin/tagspin/internal/spectrum"
)

// rig is one workload's test rig: the system under test, built the way
// production builds it, plus the load generator that matches its traffic.
type rig interface {
	// start builds the serving stack from registry JSON and runs the first
	// answer; tr, when non-nil, installs the timing wrappers.
	start(tr *tracer) error
	// drive generates load until the deadline.
	drive(until time.Time, tr *tracer) load
	// newTracer returns a tracer that can attribute this workload's spans.
	newTracer() *tracer
	// errors returns the distance to ground truth of each reference answer.
	errors() []float64
	stats() serverStats
	drifts() []time.Duration
	decodeUsPerReport() float64
	pacedSession() time.Duration
	stop()
}

// noWire supplies the wire-only hooks of in-process rigs.
type noWire struct{}

func (noWire) stats() serverStats          { return serverStats{} }
func (noWire) drifts() []time.Duration     { return nil }
func (noWire) decodeUsPerReport() float64  { return 0 }
func (noWire) pacedSession() time.Duration { return 0 }
func (noWire) stop()                       {}

// sample is the outcome of one generated request: a locate, or a batch of
// them on the portal.
type sample struct {
	end           time.Time // when the answer was read
	lat, tail     time.Duration
	items         int
	failed, wrong int
}

// load is what a generator produced during one phase.
type load struct {
	samples []sample
	lags    []time.Duration // how late the open-loop generator woke
}

// serverStats sums the counters of a workload's locsrv replicas.
type serverStats struct {
	locsrv   locsrv.Stats
	rerouted uint64
}

func (s *serverStats) add(st locsrv.Stats) {
	s.locsrv.StreamLocates += st.StreamLocates
	s.locsrv.StreamFallbackTags += st.StreamFallbackTags
	s.locsrv.AdmissionRejects += st.AdmissionRejects
	s.locsrv.FinalizeCount += st.FinalizeCount
	s.locsrv.FinalizeNsTotal += st.FinalizeNsTotal
	s.locsrv.MaxAccumBacklog = max(s.locsrv.MaxAccumBacklog, st.MaxAccumBacklog)
}

// counters are the process-wide and server counters read around a phase.
type counters struct {
	pool   sched.Stats
	search spectrum.SearchStats
	plan   spectrum.PlanCacheStats
	server serverStats
}

func readCounters(d rig) counters {
	return counters{sched.PoolStats(), spectrum.SearchStatsSnapshot(), spectrum.PlanCacheSnapshot(), d.stats()}
}

// window is one measured stretch of load.
type window struct {
	load
	elapsed       time.Duration
	allocBytes    uint64
	heapPeak      uint64
	drifts        []time.Duration
	before, after counters
}

// measure drives d for dur and reads the counters around it. The heap is
// collected first so each phase starts from the live set.
func measure(d rig, dur time.Duration, tr *tracer) window {
	d.drifts() // discard warm-up pacing samples
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := window{before: readCounters(d)}
	peak := sampleHeap()
	start := time.Now()
	p.load = d.drive(start.Add(dur), tr)
	p.elapsed = time.Since(start)
	p.heapPeak = peak()
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.after = readCounters(d)
	p.drifts = d.drifts()
	return p
}

// sampleHeap samples HeapInuse every 100 ms until the returned function is
// called; that function stops the sampler and returns the peak.
func sampleHeap() func() uint64 {
	var (
		mu   sync.Mutex
		peak uint64
	)
	read := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		mu.Lock()
		peak = max(peak, m.HeapInuse)
		mu.Unlock()
	}
	read()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(stop)
		<-done
		read()
		mu.Lock()
		defer mu.Unlock()
		return peak
	}
}

// totals sums a phase's outcomes.
type totals struct {
	requests, items, failed, wrong int
}

func (l load) totals() totals {
	var t totals
	for _, s := range l.samples {
		t.requests++
		t.items += s.items
		t.failed += s.failed
		t.wrong += s.wrong
	}
	return t
}

// latencies returns the successful requests' latency and tail in ms.
func (l load) latencies() (lat, tail []float64) {
	for _, s := range l.samples {
		if s.failed == 0 {
			lat = append(lat, ms(s.lat))
			tail = append(tail, ms(s.tail))
		}
	}
	return lat, tail
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
