// Package sched fans chunked grid scans out over a fixed, process-wide set
// of helper goroutines. The dense Q/R scans (the test oracle, Profile2D/3D,
// ExhaustivePeak2D) are its only callers.
//
// Run offers a job to at most Workers()−1 idle helpers and runs chunks on
// the calling goroutine too until none are left. Busy helpers are not
// offered the job, so concurrent scans never queue behind each other and at
// most Workers() goroutines run one scan's chunks; at width 1 every chunk
// runs inline on the caller.
//
// Every chunk runs exactly once, and each RunChunk call covers exactly one
// chunk. Which goroutine runs a chunk never enters the caller's
// arithmetic, so results are bit-identical to a serial loop. The
// steady-state submit path allocates nothing: job descriptors are pooled
// and completion is a reusable sync.WaitGroup.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Chunked is a unit of scan work: chunk [lo, hi) of a job's index range.
// RunChunk must tolerate concurrent calls on disjoint chunks.
type Chunked interface {
	RunChunk(lo, hi int)
}

// job is one submitted scan: a chunk cursor over [0, n) plus the
// WaitGroup its helpers release. A helper touches the job only before its
// wg.Done, so once Run's wg.Wait returns the descriptor can be recycled.
type job struct {
	task    Chunked
	n       int // index range is [0, n)
	chunk   int // chunk size; the last chunk may be partial
	nChunks int
	next    atomic.Int64 // next chunk index to claim; may run past nChunks
	wg      sync.WaitGroup
}

// drain claims and runs chunks until the job has none left.
func (jb *job) drain() {
	ran := 0
	for {
		c := int(jb.next.Add(1)) - 1
		if c >= jb.nChunks {
			break
		}
		lo := c * jb.chunk
		jb.task.RunChunk(lo, min(lo+jb.chunk, jb.n))
		ran++
	}
	chunksRun.Add(uint64(ran))
}

var (
	// work hands a job to an idle helper. It is unbuffered, so a send
	// succeeds only when a helper is parked on the receive.
	work = make(chan *job)

	mu      sync.Mutex
	width   atomic.Int64 // configured width; 0 until first use
	helpers int          // helper goroutines started so far; guarded by mu

	jobs               = sync.Pool{New: func() any { return new(job) }}
	jobsRun, chunksRun atomic.Uint64
)

// helper runs the chunks of every job it is handed, for the life of the
// process.
func helper() {
	for jb := range work {
		jb.drain()
		jb.wg.Done()
	}
}

// SetWorkers sets how many goroutines may run one scan's chunks, the caller
// included (minimum 1; the default is GOMAXPROCS at first use). Helpers are
// started as the width grows and stay parked when it shrinks.
func SetWorkers(n int) {
	mu.Lock()
	setLocked(max(n, 1))
	mu.Unlock()
}

func setLocked(n int) {
	for ; helpers < n-1; helpers++ {
		go helper()
	}
	width.Store(int64(n))
}

// Workers reports the configured width.
func Workers() int {
	if w := width.Load(); w > 0 {
		return int(w)
	}
	mu.Lock()
	defer mu.Unlock()
	if width.Load() == 0 {
		setLocked(runtime.GOMAXPROCS(0))
	}
	return int(width.Load())
}

// Run executes t over the chunks of [0, n) and returns once every chunk has
// run. A non-positive chunk means one chunk of n.
func Run(t Chunked, n, chunk int) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = n
	}
	jb := jobs.Get().(*job)
	jb.task, jb.n, jb.chunk, jb.nChunks = t, n, chunk, (n+chunk-1)/chunk
offer:
	for i := min(Workers(), jb.nChunks) - 1; i > 0; i-- {
		jb.wg.Add(1)
		select {
		case work <- jb:
		default:
			jb.wg.Done() // no helper is idle; stop offering
			break offer
		}
	}
	jb.drain()
	jb.wg.Wait()
	jobsRun.Add(1)
	jb.task = nil
	jb.next.Store(0)
	jobs.Put(jb)
}

// Stats is a point-in-time snapshot of the scheduler's counters, shaped for
// expvar publication.
type Stats struct {
	Workers   int    // configured width: SetWorkers, or GOMAXPROCS
	JobsRun   uint64 // Run calls since process start
	ChunksRun uint64 // chunks run since process start
}

// PoolStats reports the scheduler's counters.
func PoolStats() Stats {
	return Stats{Workers: Workers(), JobsRun: jobsRun.Load(), ChunksRun: chunksRun.Load()}
}
