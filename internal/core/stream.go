package core

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/tags"
)

// streamBuffer is the ingestion queue depth between the collecting
// goroutine and the accumulation worker. Preparing one snapshot's term
// takes well under a microsecond while reader reports arrive hundreds of
// microseconds apart, so the queue's steady-state depth is ~0; the buffer
// absorbs report bursts (one ROAccessReport can carry many tags) without
// backpressuring the protocol loop.
const streamBuffer = 256

// streamItem is one queued snapshot, or (when sync is non-nil) a Quiesce
// marker the worker closes once everything queued before it has been added.
type streamItem struct {
	epc  tags.EPC
	snap phase.Snapshot
	sync chan struct{}
}

// StreamStats counts what a Stream did, for serving metrics.
type StreamStats struct {
	// Snapshots is how many snapshots were enqueued.
	Snapshots int64
	// MaxBacklog is the ingestion queue's high-water mark.
	MaxBacklog int64
	// StreamedTags counts tag estimates finalized from their streamed
	// accumulator; FallbackTags counts tag estimates that re-prepared the
	// collected snapshots instead (disordered arrival, a channel or count
	// mismatch with the batch selection, or a bootstrap-kind mismatch
	// between construction and finalize). Both run the same batch peak
	// search, at any session length.
	StreamedTags, FallbackTags int64
}

// freqAcc accumulates one tag's snapshots on one carrier frequency. The
// batch pipeline localizes each tag on its dominant channel only; streaming
// cannot know the dominant channel until the session ends, so it buffers
// every channel in its own accumulator and finalizes from whichever one
// matches the batch selection.
type freqAcc struct {
	freq   float64
	acc    *spectrum.Accumulator
	last   time.Duration
	failed bool // disordered arrival or Add failure: unusable at finalize
}

// tagStream is the per-registered-tag ingestion state.
type tagStream struct {
	tag  SpinningTag
	accs []*freqAcc
}

// find returns the accumulator for freq, or nil.
func (ts *tagStream) find(freq float64) *freqAcc {
	for _, fa := range ts.accs {
		if fa.freq == freq {
			return fa
		}
	}
	return nil
}

// Stream overlaps term preparation with tag collection: snapshots reported
// mid-session are checked and converted into prepared spectrum terms in
// per-tag, per-channel accumulators (spectrum.Accumulator) as they arrive,
// and Finalize2D/Finalize3D run the batch peak search on those terms, then
// the bearing intersection.
//
// The finalize result is bit-identical to the batch Locate2D/Locate3D on
// the same observations: each accumulator finalizes through the batch
// search itself, at any session length, and any condition that would make
// its terms differ from the batch selection's — out-of-order or duplicate
// timestamps on a tag's dominant channel, a snapshot the accumulator
// rejects, a bootstrap-kind mismatch — quietly downgrades the affected tag
// (or the whole finalize) to re-preparing the collected snapshots.
// Fallbacks are counted in Stats.
//
// Report is called from the collecting goroutine; everything else must run
// on the owner's goroutine, after collection has returned. Reset discards
// all accumulated state for a retry attempt; Close releases the worker.
type Stream struct {
	loc        *Locator
	registered []SpinningTag
	threeD     bool
	kind       spectrum.Kind // predicted bootstrap kind accumulators use

	byEPC   map[tags.EPC]*tagStream
	ch      chan streamItem
	done    chan struct{}
	stopped bool

	snapshots  atomic.Int64
	maxBacklog atomic.Int64
	streamed   atomic.Int64
	fallbacks  atomic.Int64
}

// NewStream2D builds a streaming session for a 2D locate of the registered
// tags: each arriving snapshot becomes a prepared term in its tag's
// accumulator, and the finalize runs the batch 2D search on those terms.
// The accumulators assume the bootstrap kind the registration list
// implies (Q when any registered tag carries an orientation calibration);
// if the tags actually present at finalize imply a different kind, the
// finalize falls back to batch wholesale.
func (l *Locator) NewStream2D(registered []SpinningTag) *Stream {
	return l.newStream(registered, false)
}

// NewStream3D is NewStream2D for a 3D locate.
func (l *Locator) NewStream3D(registered []SpinningTag) *Stream {
	return l.newStream(registered, true)
}

func (l *Locator) newStream(registered []SpinningTag, threeD bool) *Stream {
	s := &Stream{
		loc:        l,
		registered: registered,
		threeD:     threeD,
		kind:       l.bootstrapKind(registered),
	}
	s.start()
	return s
}

// start (re)initializes the ingestion state and launches the worker.
func (s *Stream) start() {
	s.byEPC = make(map[tags.EPC]*tagStream, len(s.registered))
	for _, tag := range s.registered {
		tag := tag
		s.byEPC[tag.EPC] = &tagStream{tag: tag}
	}
	s.ch = make(chan streamItem, streamBuffer)
	s.done = make(chan struct{})
	s.stopped = false
	go s.run()
}

// stop closes the queue and joins the worker; idempotent.
func (s *Stream) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	close(s.ch)
	<-s.done
}

// Close stops the worker without finalizing. Safe after Finalize (no-op).
func (s *Stream) Close() { s.stop() }

// Reset discards every accumulated snapshot and restarts the worker — the
// hook for collection retries, where a failed attempt has already streamed
// a partial prefix that must not contaminate the next attempt. Must not be
// called while a collector might still call Report.
func (s *Stream) Reset() {
	s.stop()
	s.start()
}

// Report ingests one snapshot; it is the client.ReportFunc for this
// session. It only enqueues — accumulation happens on the Stream's worker —
// so the collection protocol loop is never blocked for more than a queue
// slot. Must not be called after Finalize, Reset, or Close.
func (s *Stream) Report(epc tags.EPC, snap phase.Snapshot) {
	s.snapshots.Add(1)
	if b := int64(len(s.ch)) + 1; b > s.maxBacklog.Load() {
		s.maxBacklog.Store(b)
	}
	s.ch <- streamItem{epc: epc, snap: snap}
}

// Backlog reports the snapshots currently queued but not yet added.
func (s *Stream) Backlog() int { return len(s.ch) }

// Quiesce blocks until every snapshot reported so far has been added. A
// session that keeps up with its reader finishes collection with an empty
// queue, so Finalize pays no term preparation; Quiesce reproduces that
// steady state for benchmarks and tests that replay a session faster than
// real time.
// Like Report, it must not be called after Finalize, Reset, or Close.
func (s *Stream) Quiesce() {
	done := make(chan struct{})
	s.ch <- streamItem{sync: done}
	<-done
}

// Stats returns the session's counters. Safe to call concurrently with
// Report (gauges may lag by one snapshot).
func (s *Stream) Stats() StreamStats {
	return StreamStats{
		Snapshots:    s.snapshots.Load(),
		MaxBacklog:   s.maxBacklog.Load(),
		StreamedTags: s.streamed.Load(),
		FallbackTags: s.fallbacks.Load(),
	}
}

// run is the accumulation worker: it drains the queue into the per-tag
// accumulators until the queue closes.
func (s *Stream) run() {
	defer close(s.done)
	for it := range s.ch {
		if it.sync != nil {
			close(it.sync)
			continue
		}
		s.ingest(it)
	}
}

// ingest adds one snapshot to its (tag, channel) accumulator. Unregistered
// tags and broken channels are ignored (the batch path drops or rejects them
// too); ordering violations poison only the affected accumulator.
func (s *Stream) ingest(it streamItem) {
	ts := s.byEPC[it.epc]
	if ts == nil || it.snap.FrequencyHz <= 0 {
		return
	}
	fa := ts.find(it.snap.FrequencyHz)
	if fa == nil {
		fa = &freqAcc{freq: it.snap.FrequencyHz}
		if acc, err := s.newAccumulator(ts.tag); err != nil {
			fa.failed = true
		} else {
			fa.acc = acc
		}
		ts.accs = append(ts.accs, fa)
	}
	if fa.failed {
		return
	}
	if fa.acc.Snapshots() > 0 && it.snap.Time <= fa.last {
		// The batch path time-sorts with a non-stable sort, so only a
		// strictly increasing arrival order is guaranteed to reproduce its
		// snapshot order bit for bit. Anything else downgrades this
		// channel to the batch path at finalize.
		fa.failed = true
		return
	}
	fa.last = it.snap.Time
	if err := fa.acc.Add(it.snap); err != nil {
		fa.failed = true
	}
}

// newAccumulator builds the per-(tag, channel) accumulator with exactly the
// parameters the batch per-tag estimate would use.
func (s *Stream) newAccumulator(tag SpinningTag) (*spectrum.Accumulator, error) {
	cfg := s.loc.cfg
	params := spectrum.Params{Disk: tag.Disk, Sigma: cfg.Sigma, LiteralReference: cfg.LiteralReference}
	if s.threeD {
		return spectrum.NewAccumulator3D(params, s.kind, cfg.Search)
	}
	return spectrum.NewAccumulator2D(params, s.kind, cfg.Search)
}

// usableAcc returns the accumulator that matches the batch selection for
// this tag — same dominant channel, same snapshot count, clean in-order
// history — or nil when the tag must fall back to batch.
func (s *Stream) usableAcc(tag SpinningTag, selected []phase.Snapshot) *freqAcc {
	ts := s.byEPC[tag.EPC]
	if ts == nil || len(selected) == 0 {
		return nil
	}
	fa := ts.find(selected[0].FrequencyHz)
	if fa == nil || fa.failed || fa.acc == nil || fa.acc.Snapshots() != len(selected) {
		return nil
	}
	return fa
}

// Finalize2D completes the streamed session against the full observations
// the collection returned: batch-identical selection and validation, per-tag
// peaks from the streamed terms (or the collected snapshots on a fallback),
// both through the batch peak search, then the shared solve
// and orientation passes. The result is bit-identical to
// Locate2DContext(ctx, registered, obs).
func (s *Stream) Finalize2D(ctx context.Context, obs Observations) (Result2D, error) {
	s.stop()
	l := s.loc
	present, selected, err := l.selectAll(s.registered, obs)
	if err != nil {
		return Result2D{}, err
	}
	if err := ctxErr(ctx); err != nil {
		return Result2D{}, err
	}
	kind := l.bootstrapKind(present)
	streamable := kind == s.kind && !s.threeD
	etags, err := estimateAll(present, func(tag SpinningTag) (EstimatorTag, error) {
		sel := selected[tag.EPC.String()]
		if streamable {
			if fa := s.usableAcc(tag, sel); fa != nil {
				if az, pow, err := fa.acc.FindPeak2D(); err == nil {
					s.streamed.Add(1)
					return EstimatorTag{
						Tag:   tag,
						Snaps: sel,
						Est:   TagEstimate{EPC: tag.EPC, Azimuth: az, Power: pow, Snapshots: len(sel)},
					}, nil
				}
			}
		}
		s.fallbacks.Add(1)
		return l.estimate2D(tag, sel, kind, nil)
	})
	if err != nil {
		return Result2D{}, err
	}
	sol, err := l.est.Solve2D(etags)
	if err != nil {
		return Result2D{}, err
	}
	return l.finish2D(ctx, present, selected, etags, sol)
}

// Finalize3D is Finalize2D for a 3D locate; bit-identical to
// Locate3DContext(ctx, registered, obs).
func (s *Stream) Finalize3D(ctx context.Context, obs Observations) (Result3D, error) {
	s.stop()
	l := s.loc
	present, selected, err := l.selectAll(s.registered, obs)
	if err != nil {
		return Result3D{}, err
	}
	if err := ctxErr(ctx); err != nil {
		return Result3D{}, err
	}
	kind := l.bootstrapKind(present)
	streamable := kind == s.kind && s.threeD
	etags, err := estimateAll(present, func(tag SpinningTag) (EstimatorTag, error) {
		sel := selected[tag.EPC.String()]
		if streamable {
			if fa := s.usableAcc(tag, sel); fa != nil {
				if pk, err := fa.acc.FindPeak3D(); err == nil {
					s.streamed.Add(1)
					return EstimatorTag{
						Tag:   tag,
						Snaps: sel,
						Est: TagEstimate{
							EPC:       tag.EPC,
							Azimuth:   pk.Azimuth,
							Polar:     pk.Polar,
							Power:     pk.Power,
							Snapshots: len(sel),
						},
					}, nil
				}
			}
		}
		s.fallbacks.Add(1)
		return l.estimate3D(tag, sel, kind, nil)
	})
	if err != nil {
		return Result3D{}, err
	}
	sol, err := l.est.Solve3D(etags)
	if err != nil {
		return Result3D{}, err
	}
	return l.finish3D(ctx, present, selected, etags, sol)
}

// Locate2DStream runs a 2D locate with collection and accumulation
// overlapped: collect receives a sink to call per decoded snapshot (wire it
// to client.CollectStream) and returns the complete observations, which
// Finalize2D then turns into the position. The result is bit-identical to
// collecting first and calling Locate2DContext after.
func (l *Locator) Locate2DStream(ctx context.Context, registered []SpinningTag, collect func(sink func(tags.EPC, phase.Snapshot)) (Observations, error)) (Result2D, error) {
	st := l.NewStream2D(registered)
	defer st.Close()
	obs, err := collect(st.Report)
	if err != nil {
		return Result2D{}, err
	}
	return st.Finalize2D(ctx, obs)
}

// Locate3DStream is Locate2DStream for a 3D locate.
func (l *Locator) Locate3DStream(ctx context.Context, registered []SpinningTag, collect func(sink func(tags.EPC, phase.Snapshot)) (Observations, error)) (Result3D, error) {
	st := l.NewStream3D(registered)
	defer st.Close()
	obs, err := collect(st.Report)
	if err != nil {
		return Result3D{}, err
	}
	return st.Finalize3D(ctx, obs)
}
