package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/tags"
)

// reqHeader carries the generator's request id to the traced handlers. The
// server ignores it; the coordinator does not forward it, so replica spans
// are matched to the one batch in flight instead.
const reqHeader = "X-Bench-Request"

// maxCapture bounds how many solve passes keep their inputs for replay.
const maxCapture = 64

// fingerprint identifies a tag's session from what a Solve call receives.
// Orientation correction rewrites phases only, so the EPC, the snapshot count
// and the first and last snapshot's time and RSSI survive every pass.
type fingerprint struct {
	epc    tags.EPC
	n      int
	t0, t1 time.Duration
	r0, r1 float64
}

// fingerprintOf fingerprints a time-sorted snapshot series.
func fingerprintOf(epc tags.EPC, snaps []phase.Snapshot) fingerprint {
	if len(snaps) == 0 {
		return fingerprint{epc: epc}
	}
	first, last := snaps[0], snaps[len(snaps)-1]
	return fingerprint{epc, len(snaps), first.Time, last.Time, first.RSSIdBm, last.RSSIdBm}
}

// span is one timed interval of a request, recorded at a layer boundary.
type span struct {
	name     string
	parent   string
	slot     int // reader or session slot; -1 when the span has none
	replica  int // replica index on the portal, else 0
	attempts int // collect attempts ("collect" spans)
	backend  string
	start    time.Time
	end      time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// request is everything recorded about one generated request (a locate, or
// a batch on the portal).
type request struct {
	id    int
	start time.Time
	spans []span
}

// pass is one captured solve pass: the estimator's input tags, replayed
// serially after the run to split its cost by spectrum stage.
type pass struct {
	n        int // 1-based pass number within its locate
	threeD   bool
	streamed bool          // pass 1 of a streaming locate: peaks came from folded sums
	wall     time.Duration // in-pipeline time from the previous boundary to this solve
	tags     []core.EstimatorTag
}

// tracer records spans from wrappers around the public seams of each layer:
// an Estimator decorator, a CollectStreamFunc wrapper and http.Handler
// middleware. Spans stay in memory until the run ends.
type tracer struct {
	epoch   time.Time
	threeD  bool
	wire    bool
	inner   string // the span that encloses collects and solves
	slotOf  map[fingerprint]int
	slotFor map[string]int // reader address → slot

	mu           sync.Mutex
	live         map[int]*request // slot → request in flight on it
	byID         map[int]*request
	reqs         []*request
	seen         int // spans recorded through a wrapper
	unattributed int
	passes       []pass
}

func newTracer(threeD, wire bool, inner string, slotOf map[fingerprint]int, slotFor map[string]int) *tracer {
	return &tracer{
		epoch:   time.Now(),
		threeD:  threeD,
		wire:    wire,
		inner:   inner,
		slotOf:  slotOf,
		slotFor: slotFor,
		live:    make(map[int]*request),
		byID:    make(map[int]*request),
	}
}

// begin registers a request as in flight on its slots.
func (t *tracer) begin(req *request, slots ...int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range slots {
		t.live[s] = req
	}
	t.byID[req.id] = req
}

// end adds the generator-side spans and retires the request.
func (t *tracer) end(req *request, spans ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	req.spans = append(req.spans, spans...)
	for s, r := range t.live {
		if r == req {
			delete(t.live, s)
		}
	}
	delete(t.byID, req.id)
	t.reqs = append(t.reqs, req)
}

// add attributes a wrapper span to the request in flight on its slot.
func (t *tracer) add(sp span) *request {
	t.seen++
	req := t.live[sp.slot]
	if req == nil {
		t.unattributed++
		return nil
	}
	req.spans = append(req.spans, sp)
	return req
}

// estimator decorates a solve backend with a span per Solve call.
func (t *tracer) estimator(inner core.Estimator) core.Estimator {
	return &tracedEstimator{inner: inner, t: t}
}

type tracedEstimator struct {
	inner core.Estimator
	t     *tracer
}

func (e *tracedEstimator) Name() string { return e.inner.Name() }

func (e *tracedEstimator) Solve2D(tags []core.EstimatorTag) (core.Solution2D, error) {
	in := time.Now()
	sol, err := e.inner.Solve2D(tags)
	e.t.solve(tags, e.inner.Name(), in, time.Now())
	return sol, err
}

func (e *tracedEstimator) Solve3D(tags []core.EstimatorTag) (core.Solution3D, error) {
	in := time.Now()
	sol, err := e.inner.Solve3D(tags)
	e.t.solve(tags, e.inner.Name(), in, time.Now())
	return sol, err
}

// solve records one Solve call and captures its inputs while capacity lasts.
func (t *tracer) solve(etags []core.EstimatorTag, backend string, in, out time.Time) {
	slot := -1
	if len(etags) > 0 {
		if s, ok := t.slotOf[fingerprintOf(etags[0].Tag.EPC, etags[0].Snaps)]; ok {
			slot = s
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	req := t.add(span{name: "solve", parent: t.inner, slot: slot, backend: backend, start: in, end: out})
	if req == nil || len(t.passes) >= maxCapture {
		return
	}
	// The pass began where the previous solve of this slot ended, or for the
	// first pass where collection (or the locate call) ended.
	begin, n := req.start, 0
	for _, sp := range req.spans[:len(req.spans)-1] {
		if sp.slot != slot {
			continue
		}
		switch sp.name {
		case "solve":
			begin, n = sp.end, n+1
		case "collect":
			if n == 0 {
				begin = sp.end
			}
		}
	}
	t.passes = append(t.passes, pass{
		n:        n + 1,
		threeD:   t.threeD,
		streamed: t.wire && n == 0,
		wall:     in.Sub(begin),
		tags:     append([]core.EstimatorTag(nil), etags...),
	})
}

// collect wraps a streaming collector with a span per collect, counting how
// many times it started a session attempt.
func (t *tracer) collect(replica int, inner locsrv.CollectStreamFunc) locsrv.CollectStreamFunc {
	return func(ctx context.Context, addr string, cfg client.Config, start func() client.ReportFunc) (core.Observations, error) {
		attempts := 0
		in := time.Now()
		obs, err := inner(ctx, addr, cfg, func() client.ReportFunc {
			attempts++
			return start()
		})
		slot, ok := t.slotFor[addr]
		if !ok {
			slot = -1
		}
		t.mu.Lock()
		t.add(span{name: "collect", parent: t.inner, slot: slot, replica: replica, attempts: attempts, start: in, end: time.Now()})
		t.mu.Unlock()
		return obs, err
	}
}

// middleware records a span per locate request served by next. Requests
// carrying reqHeader are matched by id; the rest go to the single request in
// flight. Other paths, such as the coordinator's health probes, pass through.
func (t *tracer) middleware(name, parent string, replica int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/locate" && r.URL.Path != "/v1/locate-batch" {
			next.ServeHTTP(w, r)
			return
		}
		in := time.Now()
		next.ServeHTTP(w, r)
		out := time.Now()
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		t.mu.Lock()
		defer t.mu.Unlock()
		t.seen++
		var req *request
		if err == nil {
			req = t.byID[id]
		} else if len(t.byID) == 1 {
			for _, only := range t.byID {
				req = only
			}
		}
		if req == nil {
			t.unattributed++
			return
		}
		req.spans = append(req.spans, span{name: name, parent: parent, slot: -1, replica: replica, start: in, end: out})
	})
}

// clear drops everything recorded so far (the traced stack's first answer).
func (t *tracer) clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs, t.passes, t.seen, t.unattributed = nil, nil, 0, 0
}

// addFingerprints maps each tag's fingerprint in obs to slot.
func addFingerprints(fps map[fingerprint]int, obs core.Observations, slot int) {
	for epc, snaps := range obs {
		sorted := append([]phase.Snapshot(nil), snaps...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
		fps[fingerprintOf(epc, sorted)] = slot
	}
}

// done returns the recorded requests and captured passes.
func (t *tracer) done() ([]*request, []pass, int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqs, t.passes, t.seen, t.unattributed
}

// writeSpans writes every span as one JSON line: request id, name, parent
// span, slot and microsecond offsets from the tracer's start.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Req      int     `json:"req"`
		Name     string  `json:"name"`
		Parent   string  `json:"parent,omitempty"`
		Slot     int     `json:"slot"`
		Replica  int     `json:"replica,omitempty"`
		Attempts int     `json:"attempts,omitempty"`
		Backend  string  `json:"backend,omitempty"`
		StartUs  float64 `json:"startUs"`
		EndUs    float64 `json:"endUs"`
	}
	reqs, _, _, _ := t.done()
	for _, req := range reqs {
		spans := append([]span(nil), req.spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
		for _, sp := range spans {
			if err := enc.Encode(line{
				Req: req.id, Name: sp.name, Parent: sp.parent, Slot: sp.slot, Replica: sp.replica,
				Attempts: sp.attempts, Backend: sp.backend,
				StartUs: float64(sp.start.Sub(t.epoch)) / 1e3, EndUs: float64(sp.end.Sub(t.epoch)) / 1e3,
			}); err != nil {
				f.Close() //nolint:errcheck // already failing
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
