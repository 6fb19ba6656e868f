// Package readersim emulates the network face of an Impinj-style RFID
// reader: it accepts LLRP-flavoured TCP connections, runs inventory sessions
// against the simulated radio world (internal/testbed), and streams batched
// tag reports carrying quantized phase words and reader-clock timestamps —
// the same data path the paper's host software consumed.
//
// Sessions run on a compressed clock: TimeScale simulated seconds pass per
// wall-clock second, so a 4-second (two-rotation) session can stream in
// 20 ms of real time during tests while preserving the simulated timestamps.
package readersim

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/tagspin/tagspin/internal/llrp"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/testbed"
)

// Faults injects deterministic wire-level failures so the robustness of the
// collection pipeline (retries, deadlines, cancellation) can be tested
// against real protocol traffic instead of mocks.
type Faults struct {
	// RejectSessions rejects the first K StartROSpec requests across the
	// whole reader (StatusError), then serves normally — the transient
	// "reader busy" condition a retrying client must ride out.
	RejectSessions int
	// DropAfterReports abruptly closes the TCP connection after the Nth
	// ROAccessReport of a session, with no protocol goodbye; zero
	// disables the fault.
	DropAfterReports int
	// StallBeforeDone streams every report but never sends ROSpecDone;
	// the session hangs until the client gives up or disconnects.
	StallBeforeDone bool
	// CloseMidSession sends a protocol-level CloseConnection after the
	// first report batch and drops the connection, on every session.
	CloseMidSession bool
	// CloseMidSessions does the same to only the first K sessions across
	// the whole reader, then serves normally — the transient flavor a
	// retrying client must ride out (mirroring RejectSessions). Ignored
	// when CloseMidSession is set.
	CloseMidSessions int
}

// Config configures the simulated reader.
type Config struct {
	// World is the simulated deployment the reader interrogates.
	World *testbed.Scenario
	// TimeScale is simulated seconds per wall second; zero means 200.
	TimeScale float64
	// ReportBatch is the number of reads per ROAccessReport; zero
	// means 16.
	ReportBatch int
	// Seed seeds the session randomness.
	Seed int64
	// Faults, when non-zero, injects wire-level failures (see Faults).
	Faults Faults
	// Logf, when non-nil, receives diagnostic log lines.
	Logf func(format string, args ...any)
}

// timeScale returns the effective time compression.
func (c Config) timeScale() float64 {
	if c.TimeScale <= 0 {
		return 200
	}
	return c.TimeScale
}

// reportBatch returns the effective batch size.
func (c Config) reportBatch() int {
	if c.ReportBatch <= 0 {
		return 16
	}
	return c.ReportBatch
}

// logf logs through the configured sink.
func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Reader is a running simulated reader.
type Reader struct {
	cfg Config

	mu        sync.Mutex
	seed      int64
	rejected  int
	midClosed int
	closed    chan struct{}
	wg        sync.WaitGroup
	lis       net.Listener
	conns     map[*llrp.Conn]struct{}
}

// New builds a Reader.
func New(cfg Config) (*Reader, error) {
	if cfg.World == nil {
		return nil, errors.New("readersim: nil world")
	}
	if len(cfg.World.Installs) == 0 {
		return nil, errors.New("readersim: world has no spinning tags")
	}
	return &Reader{
		cfg:    cfg,
		seed:   cfg.Seed,
		closed: make(chan struct{}),
		conns:  make(map[*llrp.Conn]struct{}),
	}, nil
}

// track registers a live connection so Close can interrupt its blocked
// Receive; it returns false when the reader is already closed.
func (r *Reader) track(conn *llrp.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.closed:
		return false
	default:
	}
	r.conns[conn] = struct{}{}
	return true
}

// untrack removes a finished connection.
func (r *Reader) untrack(conn *llrp.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.conns, conn)
}

// Serve accepts connections on l until Close is called. It blocks.
func (r *Reader) Serve(l net.Listener) error {
	r.mu.Lock()
	r.lis = l
	r.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-r.closed:
				return nil
			default:
				return fmt.Errorf("readersim accept: %w", err)
			}
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handle(llrp.NewConn(conn))
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (r *Reader) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.Serve(l)
}

// Addr returns the listener address, once Serve has been called.
func (r *Reader) Addr() net.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lis == nil {
		return nil
	}
	return r.lis.Addr()
}

// Close stops accepting, closes the listener, and waits for in-flight
// sessions to finish.
func (r *Reader) Close() error {
	r.mu.Lock()
	select {
	case <-r.closed:
	default:
		close(r.closed)
		if r.lis != nil {
			r.lis.Close() //nolint:errcheck // best-effort shutdown
		}
		// Interrupt handlers blocked in Receive.
		for conn := range r.conns {
			conn.Close() //nolint:errcheck // best-effort shutdown
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
	return nil
}

// nextSeed hands out distinct deterministic seeds to sessions.
func (r *Reader) nextSeed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seed++
	return r.seed
}

// takeRejection consumes one injected session rejection, if any remain.
func (r *Reader) takeRejection() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rejected < r.cfg.Faults.RejectSessions {
		r.rejected++
		return true
	}
	return false
}

// takeCloseMidSession decides, once per session, whether this session is
// closed mid-stream: always under CloseMidSession, else it consumes one of
// the CloseMidSessions injections while any remain.
func (r *Reader) takeCloseMidSession() bool {
	if r.cfg.Faults.CloseMidSession {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.midClosed < r.cfg.Faults.CloseMidSessions {
		r.midClosed++
		return true
	}
	return false
}

// read is one generated tag read on the session timeline.
type read struct {
	epc  tags.EPC
	snap phase.Snapshot
}

// generate produces the session's reads, time-ordered, covering duration of
// simulated time.
func (r *Reader) generate(duration time.Duration) ([]read, error) {
	world := *r.cfg.World // shallow copy; we only adjust Rotations
	period := world.Installs[0].Disk.Period()
	for _, in := range world.Installs[1:] {
		if p := in.Disk.Period(); p > period {
			period = p
		}
	}
	world.Rotations = float64(duration) / float64(period)
	rng := rand.New(rand.NewSource(r.nextSeed()))
	col, err := world.Collect(rng)
	if err != nil {
		return nil, err
	}
	var out []read
	for epc, snaps := range col.Obs {
		for _, s := range snaps {
			if s.Time < duration {
				out = append(out, read{epc: epc, snap: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].snap.Time != out[j].snap.Time {
			return out[i].snap.Time < out[j].snap.Time
		}
		return out[i].epc.String() < out[j].epc.String()
	})
	return out, nil
}

// channelIndexFor inverts the world's frequency plan for the report field.
func (r *Reader) channelIndexFor(freqHz float64) uint16 {
	band := r.cfg.World.Band
	idx := int((freqHz-band.StartHz)/band.StepHz + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= band.Channels {
		idx = band.Channels - 1
	}
	return uint16(idx)
}

// handle runs one client connection.
func (r *Reader) handle(conn *llrp.Conn) {
	defer conn.Close() //nolint:errcheck // nothing to do on close failure
	if !r.track(conn) {
		return
	}
	defer r.untrack(conn)
	if _, err := conn.Send(&llrp.ReaderEventNotification{Event: llrp.EventConnectionAttempt}); err != nil {
		return
	}
	var (
		stopSession chan struct{}
		sessionDone chan struct{}
	)
	stopRunning := func() {
		if stopSession != nil {
			close(stopSession)
			<-sessionDone
			stopSession, sessionDone = nil, nil
		}
	}
	defer stopRunning()
	for {
		id, msg, err := conn.Receive()
		if err != nil {
			return // client went away; deferred cleanup stops the session
		}
		switch m := msg.(type) {
		case *llrp.StartROSpec:
			stopRunning()
			if r.takeRejection() {
				r.cfg.logf("readersim: injected rejection of ROSpec %d", m.ROSpecID)
				if err := conn.Reply(id, &llrp.StartROSpecResponse{ROSpecID: m.ROSpecID, Status: llrp.StatusError}); err != nil {
					return
				}
				continue
			}
			duration := time.Duration(m.DurationMicros) * time.Microsecond
			if duration <= 0 {
				duration = 4 * time.Second
			}
			reads, err := r.generate(duration)
			if err != nil {
				r.cfg.logf("readersim: generate: %v", err)
				if err := conn.Reply(id, &llrp.StartROSpecResponse{ROSpecID: m.ROSpecID, Status: llrp.StatusError}); err != nil {
					return
				}
				continue
			}
			if err := conn.Reply(id, &llrp.StartROSpecResponse{ROSpecID: m.ROSpecID, Status: llrp.StatusOK}); err != nil {
				return
			}
			stopSession = make(chan struct{})
			sessionDone = make(chan struct{})
			go r.stream(conn, reads, duration, r.takeCloseMidSession(), stopSession, sessionDone)
		case *llrp.StopROSpec:
			stopRunning()
			if err := conn.Reply(id, &llrp.StopROSpecResponse{ROSpecID: m.ROSpecID, Status: llrp.StatusOK}); err != nil {
				return
			}
		case *llrp.KeepAlive:
			if err := conn.Reply(id, &llrp.KeepAliveAck{}); err != nil {
				return
			}
		case *llrp.CloseConnection:
			return
		default:
			r.cfg.logf("readersim: ignoring %v", msg.MsgType())
		}
	}
}

// stream paces the generated reads onto the connection in batches, honoring
// the time compression, then announces completion. closeMid, decided once at
// session start, injects a protocol-level CloseConnection after the first
// report batch.
func (r *Reader) stream(conn *llrp.Conn, reads []read, duration time.Duration, closeMid bool, stop, done chan struct{}) {
	defer close(done)
	if _, err := conn.Send(&llrp.ReaderEventNotification{Event: llrp.EventROSpecStarted}); err != nil {
		return
	}
	batch := r.cfg.reportBatch()
	scale := r.cfg.timeScale()
	f := r.cfg.Faults
	reportsSent := 0
	sent := time.Duration(0) // simulated time already streamed
	for start := 0; start < len(reads); start += batch {
		end := start + batch
		if end > len(reads) {
			end = len(reads)
		}
		// Sleep until the last read of the batch "happens" on the
		// compressed clock.
		batchTime := reads[end-1].snap.Time
		wait := time.Duration(float64(batchTime-sent) / scale)
		sent = batchTime
		select {
		case <-stop:
			return
		case <-r.closed:
			return
		case <-time.After(wait):
		}
		report := &llrp.ROAccessReport{Reports: make([]llrp.TagReportData, 0, end-start)}
		for _, rd := range reads[start:end] {
			report.Reports = append(report.Reports, llrp.TagReportData{
				EPC:             rd.epc,
				AntennaID:       uint16(rd.snap.AntennaID),
				ChannelIndex:    r.channelIndexFor(rd.snap.FrequencyHz),
				PeakRSSI:        llrp.RSSIWordFromDBm(rd.snap.RSSIdBm),
				PhaseWord:       llrp.PhaseWordFromRadians(rd.snap.Phase),
				FirstSeenMicros: uint64(rd.snap.Time / time.Microsecond),
			})
		}
		if _, err := conn.Send(report); err != nil {
			return
		}
		reportsSent++
		if closeMid && reportsSent == 1 {
			r.cfg.logf("readersim: injected CloseConnection mid-session")
			conn.Send(&llrp.CloseConnection{}) //nolint:errcheck // dropping anyway
			conn.Close()                       //nolint:errcheck // dropping anyway
			return
		}
		if f.DropAfterReports > 0 && reportsSent >= f.DropAfterReports {
			r.cfg.logf("readersim: injected drop after %d reports", reportsSent)
			conn.Close() //nolint:errcheck // abrupt drop is the point
			return
		}
	}
	// Wait out any remaining simulated time so Done matches the duration.
	if tail := time.Duration(float64(duration-sent) / scale); tail > 0 {
		select {
		case <-stop:
			return
		case <-r.closed:
			return
		case <-time.After(tail):
		}
	}
	if f.StallBeforeDone {
		// Hang instead of completing: the client sees a live but silent
		// connection until it cancels, times out, or disconnects.
		r.cfg.logf("readersim: injected stall before ROSpecDone")
		select {
		case <-stop:
		case <-r.closed:
		}
		return
	}
	if _, err := conn.Send(&llrp.ReaderEventNotification{
		Event:           llrp.EventROSpecDone,
		TimestampMicros: uint64(duration / time.Microsecond),
	}); err != nil {
		slog.Warn("readersim: send done", "err", err)
	}
}
