package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tagspin/tagspin/internal/channel"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/llrp"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/tags"
)

// reportBatch is the number of tag reads per ROAccessReport, the same batch
// size internal/readersim sends.
const reportBatch = 16

// spinWindow is how long before the ROSpecDone deadline the replay reader
// stops sleeping and yields in a loop instead. Go parks timers on a
// millisecond-granular poller, so a plain sleep lands up to ~1 ms late; the
// session end is what the tail metrics start from, so it is paced precisely.
const spinWindow = 1500 * time.Microsecond

// wireSession is one pre-generated session, encoded into LLRP frames at set-up
// so serving it costs the benchmark process only socket writes.
type wireSession struct {
	duration time.Duration
	frames   [][]byte        // ROAccessReport frames in send order
	at       []time.Duration // simulated time of each frame's last read
}

// encodeSession turns one session's observations into report frames, reads
// merged across tags in (time, EPC) order as a reader interleaves them.
func encodeSession(obs core.Observations, duration time.Duration, band channel.Band) (wireSession, error) {
	type read struct {
		epc  tags.EPC
		snap phase.Snapshot
	}
	var reads []read
	for epc, snaps := range obs {
		for _, s := range snaps {
			reads = append(reads, read{epc, s})
		}
	}
	sort.Slice(reads, func(i, j int) bool {
		if reads[i].snap.Time != reads[j].snap.Time {
			return reads[i].snap.Time < reads[j].snap.Time
		}
		return reads[i].epc.String() < reads[j].epc.String()
	})
	ws := wireSession{duration: duration}
	for lo := 0; lo < len(reads); lo += reportBatch {
		hi := min(lo+reportBatch, len(reads))
		rep := &llrp.ROAccessReport{Reports: make([]llrp.TagReportData, 0, hi-lo)}
		for _, rd := range reads[lo:hi] {
			if rd.snap.Time >= duration {
				return wireSession{}, fmt.Errorf("read at %v past session end %v", rd.snap.Time, duration)
			}
			rep.Reports = append(rep.Reports, llrp.TagReportData{
				EPC:             rd.epc,
				AntennaID:       uint16(rd.snap.AntennaID),
				ChannelIndex:    channelIndex(band, rd.snap.FrequencyHz),
				PeakRSSI:        llrp.RSSIWordFromDBm(rd.snap.RSSIdBm),
				PhaseWord:       llrp.PhaseWordFromRadians(rd.snap.Phase),
				FirstSeenMicros: uint64(rd.snap.Time / time.Microsecond),
			})
		}
		frame, err := llrp.Encode(uint32(len(ws.frames)+1), rep)
		if err != nil {
			return wireSession{}, err
		}
		ws.frames = append(ws.frames, frame)
		ws.at = append(ws.at, reads[hi-1].snap.Time)
	}
	return ws, nil
}

// channelIndex inverts the band's frequency plan for the report field.
func channelIndex(band channel.Band, freqHz float64) uint16 {
	idx := int((freqHz-band.StartHz)/band.StepHz + 0.5)
	return uint16(max(0, min(idx, band.Channels-1)))
}

// quantize returns obs as a host decodes it off the wire: microsecond
// timestamps, 12-bit phase words, centi-dBm RSSI and channel-index carriers.
func quantize(obs core.Observations, band channel.Band) core.Observations {
	out := make(core.Observations, len(obs))
	for epc, snaps := range obs {
		q := make([]phase.Snapshot, len(snaps))
		for i, s := range snaps {
			freq, _ := band.FrequencyHz(int(channelIndex(band, s.FrequencyHz))) // index is clamped in range
			q[i] = phase.Snapshot{
				Time:        time.Duration(uint64(s.Time/time.Microsecond)) * time.Microsecond,
				Phase:       llrp.RadiansFromPhaseWord(llrp.PhaseWordFromRadians(s.Phase)),
				RSSIdBm:     llrp.DBmFromRSSIWord(llrp.RSSIWordFromDBm(s.RSSIdBm)),
				FrequencyHz: freq,
				AntennaID:   int(uint16(s.AntennaID)),
			}
		}
		out[epc] = q
	}
	return out
}

// served describes the last session a replay reader completed.
type served struct {
	session int
	done    time.Time     // when ROSpecDone was written
	drift   time.Duration // done minus its paced deadline
}

// replayReader is a minimal LLRP reader that serves pre-generated sessions in
// rotation. Unlike internal/readersim it simulates nothing while serving:
// every frame is encoded at set-up and paced against absolute deadlines
// (session start + simulated time / scale), so lateness never accumulates
// across a session. It records when each ROSpecDone went out, which is where
// an operator's wait for the answer begins.
type replayReader struct {
	lis      net.Listener
	sessions []wireSession
	scale    float64
	paced    atomic.Bool

	mu     sync.Mutex
	next   int
	last   served
	drifts []time.Duration
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// newReplayReader listens on a loopback port; once given sessions it serves
// them in order, wrapping around, at scale simulated seconds per wall second.
// It starts unpaced; setPaced switches pacing on.
func newReplayReader(scale float64) (*replayReader, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &replayReader{lis: lis, scale: scale, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

// setSessions installs the sessions to serve, before any host connects.
func (r *replayReader) setSessions(sessions []wireSession) {
	r.mu.Lock()
	r.sessions = sessions
	r.mu.Unlock()
}

// addr is the reader's host:port.
func (r *replayReader) addr() string { return r.lis.Addr().String() }

// setPaced turns real-time pacing on or off for sessions started afterwards.
func (r *replayReader) setPaced(on bool) { r.paced.Store(on) }

// lastServed returns the most recently completed session.
func (r *replayReader) lastServed() served {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// takeDrifts returns and clears the paced sessions' ROSpecDone lateness.
func (r *replayReader) takeDrifts() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.drifts
	r.drifts = nil
	return d
}

// close stops accepting, drops open connections and waits for every
// connection goroutine to return.
func (r *replayReader) close() {
	r.mu.Lock()
	r.closed = true
	r.lis.Close() //nolint:errcheck // shutting down
	for c := range r.conns {
		c.Close() //nolint:errcheck // shutting down
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *replayReader) serve() {
	defer r.wg.Done()
	for {
		c, err := r.lis.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close() //nolint:errcheck // shutting down
			return
		}
		r.conns[c] = struct{}{}
		r.wg.Add(1)
		r.mu.Unlock()
		go func() {
			defer r.wg.Done()
			r.handle(c)
			r.mu.Lock()
			delete(r.conns, c)
			r.mu.Unlock()
			c.Close() //nolint:errcheck // connection finished
		}()
	}
}

// handle runs one host connection: each StartROSpec streams the next session.
func (r *replayReader) handle(c net.Conn) {
	conn := llrp.NewConn(c)
	if _, err := conn.Send(&llrp.ReaderEventNotification{Event: llrp.EventConnectionAttempt}); err != nil {
		return
	}
	for {
		id, msg, err := conn.Receive()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *llrp.StartROSpec:
			r.mu.Lock()
			sessions := r.sessions
			k := r.next % max(len(sessions), 1)
			r.next++
			r.mu.Unlock()
			status := llrp.StatusOK
			if len(sessions) == 0 || time.Duration(m.DurationMicros)*time.Microsecond != sessions[k].duration {
				status = llrp.StatusError // no session of that length was generated
			}
			if err := conn.Reply(id, &llrp.StartROSpecResponse{ROSpecID: m.ROSpecID, Status: status}); err != nil {
				return
			}
			if status != llrp.StatusOK {
				continue
			}
			if err := r.stream(c, conn, sessions[k], k); err != nil {
				return
			}
		case *llrp.KeepAlive:
			if err := conn.Reply(id, &llrp.KeepAliveAck{}); err != nil {
				return
			}
		case *llrp.CloseConnection:
			return
		}
	}
}

// stream sends session k's frames at their paced deadlines, then ROSpecDone.
func (r *replayReader) stream(c net.Conn, conn *llrp.Conn, ws wireSession, k int) error {
	paced := r.paced.Load()
	start := time.Now()
	if _, err := conn.Send(&llrp.ReaderEventNotification{Event: llrp.EventROSpecStarted}); err != nil {
		return err
	}
	for i, frame := range ws.frames {
		if paced {
			waitUntil(start.Add(r.wall(ws.at[i])), false)
		}
		if _, err := c.Write(frame); err != nil {
			return err
		}
	}
	deadline := start.Add(r.wall(ws.duration))
	if paced {
		waitUntil(deadline, true)
	}
	// Record before sending: the host may act on ROSpecDone before this
	// goroutine runs again.
	done := time.Now()
	r.mu.Lock()
	r.last = served{session: k, done: done, drift: done.Sub(deadline)}
	if paced {
		r.drifts = append(r.drifts, r.last.drift)
	}
	r.mu.Unlock()
	_, err := conn.Send(&llrp.ReaderEventNotification{
		Event:           llrp.EventROSpecDone,
		TimestampMicros: uint64(ws.duration / time.Microsecond),
	})
	return err
}

// wall maps simulated session time to wall time on the compressed clock.
func (r *replayReader) wall(sim time.Duration) time.Duration {
	return time.Duration(float64(sim) / r.scale)
}

// waitUntil sleeps until t; with spin it sleeps to within spinWindow and
// yields in a loop for the rest, trading a little CPU for sub-millisecond
// accuracy.
func waitUntil(t time.Time, spin bool) {
	d := time.Until(t)
	if spin {
		d -= spinWindow
	}
	if d > 0 {
		time.Sleep(d)
	}
	for spin && time.Now().Before(t) {
		runtime.Gosched()
	}
}
