package sched

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countTask records exactly which indices ran, and how often.
type countTask struct {
	hits  []atomic.Int32
	delay time.Duration
	// onChunk, when non-nil, observes each executed chunk start.
	onChunk func(lo, hi int)
}

func newCountTask(n int, delay time.Duration) *countTask {
	return &countTask{hits: make([]atomic.Int32, n), delay: delay}
}

func (t *countTask) RunChunk(lo, hi int) {
	if t.onChunk != nil {
		t.onChunk(lo, hi)
	}
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	for i := lo; i < hi; i++ {
		t.hits[i].Add(1)
	}
}

func (t *countTask) executed() int {
	n := 0
	for i := range t.hits {
		if t.hits[i].Load() > 0 {
			n++
		}
	}
	return n
}

// withWidth runs f with the scheduler pinned to the given width and puts
// the previous width back afterwards.
func withWidth(t *testing.T, n int, f func()) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	f()
}

// TestSchedRunCoversAllChunks proves the exactly-once contract across
// widths and chunk sizes, including partial final chunks and n < chunk.
func TestSchedRunCoversAllChunks(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		withWidth(t, workers, func() {
			before := PoolStats().JobsRun
			for _, tc := range []struct{ n, chunk int }{
				{1, 64}, {64, 64}, {65, 64}, {1000, 64}, {333, 10}, {5, 1},
			} {
				task := newCountTask(tc.n, 0)
				Run(task, tc.n, tc.chunk)
				for i := range task.hits {
					if got := task.hits[i].Load(); got != 1 {
						t.Fatalf("workers=%d n=%d chunk=%d: index %d ran %d times, want 1",
							workers, tc.n, tc.chunk, i, got)
					}
				}
			}
			if jobs := PoolStats().JobsRun - before; jobs != 6 {
				t.Errorf("workers=%d: JobsRun rose by %d, want 6", workers, jobs)
			}
		})
	}
}

// TestSchedConcurrentJobsShareWorkers hammers the helpers from many
// submitters at once; under -race this is the data-race test for the
// hand-off, the chunk cursor and descriptor recycling.
func TestSchedConcurrentJobsShareWorkers(t *testing.T) {
	withWidth(t, 4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					task := newCountTask(97, 0)
					Run(task, 97, 8)
					for i := range task.hits {
						if task.hits[i].Load() != 1 {
							t.Errorf("index %d not exactly-once", i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestSchedStarvation pins that a long scan cannot starve a second, shorter
// one at width 1: both make progress concurrently, and the short one
// finishes while the long one is still running.
func TestSchedStarvation(t *testing.T) {
	withWidth(t, 1, func() {
		const longChunks = 400
		long := newCountTask(longChunks, time.Millisecond)
		longStarted := make(chan struct{})
		var once sync.Once
		long.onChunk = func(lo, hi int) { once.Do(func() { close(longStarted) }) }

		longDone := make(chan struct{})
		go func() {
			defer close(longDone)
			Run(long, longChunks, 1)
		}()
		<-longStarted

		short := newCountTask(8, time.Millisecond)
		Run(short, 8, 1)
		// The short job is done; the long one must still have work left —
		// i.e. the two ran side by side instead of the long job running to
		// completion first.
		if got := long.executed(); got >= longChunks {
			t.Errorf("long job already finished (%d/%d chunks) when short job completed; no interleaving", got, longChunks)
		}
		if short.executed() != 8 {
			t.Errorf("short job executed %d/8 chunks", short.executed())
		}
		<-longDone
		if long.executed() != longChunks {
			t.Errorf("long job executed %d/%d chunks", long.executed(), longChunks)
		}
	})
}

// TestSchedSetWorkers exercises resizing in both directions between jobs.
func TestSchedSetWorkers(t *testing.T) {
	withWidth(t, 2, func() {
		if got := Workers(); got != 2 {
			t.Fatalf("Workers() = %d, want 2", got)
		}
		SetWorkers(0) // clamps to 1
		if got := Workers(); got != 1 {
			t.Fatalf("Workers() after SetWorkers(0) = %d, want 1", got)
		}
		before := PoolStats()
		SetWorkers(8)
		task := newCountTask(500, 0)
		Run(task, 500, 7)
		SetWorkers(1)
		task2 := newCountTask(500, 0)
		Run(task2, 500, 7)
		if task.executed() != 500 || task2.executed() != 500 {
			t.Errorf("executed %d and %d, want 500 each", task.executed(), task2.executed())
		}
		st := PoolStats()
		if st.Workers != 1 {
			t.Errorf("PoolStats().Workers = %d, want 1", st.Workers)
		}
		if st.ChunksRun-before.ChunksRun != 2*72 || st.JobsRun-before.JobsRun != 2 {
			t.Errorf("PoolStats() = %+v after %+v, want 144 more chunks and 2 more jobs", st, before)
		}
	})
}

// TestSchedSharedPool sanity-checks the counters PoolStats publishes.
func TestSchedSharedPool(t *testing.T) {
	withWidth(t, 2, func() {
		if Workers() != 2 {
			t.Fatalf("Workers() = %d, want 2", Workers())
		}
		before := PoolStats()
		task := newCountTask(200, 0)
		Run(task, 200, 16)
		if task.executed() != 200 {
			t.Errorf("executed %d/200", task.executed())
		}
		st := PoolStats()
		if st.Workers != 2 || st.ChunksRun-before.ChunksRun != 13 || st.JobsRun-before.JobsRun != 1 {
			t.Errorf("PoolStats() = %+v after %+v, want width 2, 13 more chunks, 1 more job", st, before)
		}
	})
}

// TestSchedWidthBound pins what SetWorkers(n) promises: no more than n
// goroutines are inside one Run's chunks at once, and at width 1 every
// chunk runs on the caller's goroutine. The benchmark's serial layer
// replay and tagspin-bench's gated rows rely on the latter. Eight helpers'
// worth are started first, so the narrower widths leave idle helpers
// parked and only Run's offer limit can hold the bound.
func TestSchedWidthBound(t *testing.T) {
	withWidth(t, 8, func() {
		Run(newCountTask(64, 0), 64, 1)
		for _, workers := range []int{1, 2, 4} {
			SetWorkers(workers)
			// Give the helpers time to park on the channel again; the
			// bound must hold whichever of them takes the offer.
			time.Sleep(5 * time.Millisecond)
			var inside, peak atomic.Int32
			var offCaller atomic.Bool
			caller := goroutineID()
			task := newCountTask(64, 200*time.Microsecond)
			task.onChunk = func(lo, hi int) {
				now := inside.Add(1)
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				if goroutineID() != caller {
					offCaller.Store(true)
				}
				time.Sleep(100 * time.Microsecond)
				inside.Add(-1)
			}
			Run(task, 64, 1)
			if task.executed() != 64 {
				t.Fatalf("width %d: executed %d/64", workers, task.executed())
			}
			if p := int(peak.Load()); p > workers {
				t.Errorf("width %d: %d goroutines inside one Run at once", workers, p)
			}
			if workers == 1 && offCaller.Load() {
				t.Errorf("width 1: a chunk ran off the caller's goroutine")
			}
		}
	})
}

// goroutineID parses the calling goroutine's id from its stack header.
func goroutineID() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestSchedRunZeroAllocs pins the steady-state allocation contract of the
// submit path itself: the spectrum engine's 0 allocs/op guarantee rests on
// it.
func TestSchedRunZeroAllocs(t *testing.T) {
	withWidth(t, 4, func() {
		task := newCountTask(1024, 0)
		// Warm the descriptor pool and start the helpers.
		for i := 0; i < 4; i++ {
			Run(task, 1024, 64)
		}
		allocs := testing.AllocsPerRun(20, func() { Run(task, 1024, 64) })
		if allocs != 0 {
			t.Errorf("Run allocates %v per op, want 0", allocs)
		}
	})
}
