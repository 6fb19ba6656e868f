package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/coord"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/estimate"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/registry"
)

// timeScale is the replay readers' clock compression: a 4 s session streams
// in 20 ms of wall time, as tagspin-reader -timescale 200 does.
const timeScale = 200

// requestTimeout bounds one generated HTTP request, so a hung stack fails the
// run instead of stalling it.
const requestTimeout = 20 * time.Second

// fleet is the replay readers of a wire workload, one per slot, serving
// that slot's sessions.
type fleet struct {
	*site
	readers []*replayReader
	slotFor map[string]int
	fps     map[fingerprint]int
}

// load gives readers[r] site slot r's sessions, then collects every session
// once, unpaced, with the production client: each must decode to exactly the
// generated observations after wire quantization, the input its reference
// answer was computed from.
func (f *fleet) load(s *site, readers []*replayReader) error {
	f.site, f.readers = s, readers
	f.slotFor = make(map[string]int)
	f.fps = make(map[fingerprint]int)
	ccfg := client.Config{Duration: s.duration}
	for r, rd := range readers {
		group := s.slots[r]
		sessions := make([]wireSession, len(group))
		for k, sess := range group {
			var err error
			if sessions[k], err = encodeSession(sess.obs, s.duration, s.band); err != nil {
				return err
			}
		}
		rd.setSessions(sessions)
		f.slotFor[rd.addr()] = r
		for k, sess := range group {
			obs, err := client.Collect(context.Background(), rd.addr(), ccfg)
			if err != nil {
				return fmt.Errorf("reference collect: %w", err)
			}
			if got := rd.lastServed().session; got != k {
				return fmt.Errorf("reader %d served session %d, want %d", r, got, k)
			}
			if !reflect.DeepEqual(obs, quantize(sess.obs, s.band)) {
				return fmt.Errorf("reader %d session %d: decoded session differs from the generated one", r, k)
			}
			addFingerprints(f.fps, obs, r)
		}
		rd.setPaced(true)
	}
	return nil
}

func (f *fleet) drifts() []time.Duration {
	var out []time.Duration
	for _, rd := range f.readers {
		out = append(out, rd.takeDrifts()...)
	}
	return out
}

func (f *fleet) pacedSession() time.Duration {
	return time.Duration(float64(f.site.duration) / timeScale)
}

// decodeUsPerReport times unpaced collects of reader 0's sessions: the
// client's dial, protocol and decode cost per tag report.
func (f *fleet) decodeUsPerReport() float64 {
	rd := f.readers[0]
	rd.setPaced(false)
	defer rd.setPaced(true)
	var spent time.Duration
	reads := 0
	for range f.site.slots[0] {
		t0 := time.Now()
		obs, err := client.Collect(context.Background(), rd.addr(), client.Config{Duration: f.site.duration})
		spent += time.Since(t0)
		if err != nil {
			return 0
		}
		for _, snaps := range obs {
			reads += len(snaps)
		}
	}
	return float64(spent) / 1e3 / float64(max(reads, 1))
}

// check compares one wire answer with the reference of the session reader r
// served for it.
func (f *fleet) check(r int, ans *locsrv.LocateResponse, sv served) bool {
	return reflect.DeepEqual(ans, f.slots[r][sv.session].ref.value)
}

// throughHandler is the referee of the wire workloads: locsrv's own
// /v1/locate handler, called in process, on a server whose collector hands
// back the session being answered. It runs the batch pipeline, so the
// reference is Locate2DContext on the observations as client.Collect decodes
// them, shaped exactly as the server writes every answer.
func throughHandler(backend string) referee {
	return func(reg *registry.Registry) (answerFunc, error) {
		var next core.Observations
		srv, err := locsrv.New(locsrv.Config{Registry: reg, DisableStreaming: true,
			Collect: func(context.Context, string, client.Config) (core.Observations, error) { return next, nil }})
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(locsrv.LocateRequest{ReaderAddr: "reference", Mode: "2d", Backend: backend})
		if err != nil {
			return nil, err
		}
		h := srv.Handler()
		return func(obs core.Observations) (answer, error) {
			next = obs
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate", bytes.NewReader(body)))
			var ans locsrv.LocateResponse
			if rec.Code != http.StatusOK {
				return answer{}, fmt.Errorf("reference locate: %d %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
				return answer{}, fmt.Errorf("reference locate: %w", err)
			}
			return answer{&ans, geom.V3(ans.Position[0], ans.Position[1], ans.Position[2])}, nil
		}, nil
	}
}

func (f *fleet) close() {
	for _, rd := range f.readers {
		rd.close()
	}
}

// startReaders opens n replay readers.
func startReaders(n int) ([]*replayReader, error) {
	var out []*replayReader
	for range n {
		rd, err := newReplayReader(timeScale)
		if err != nil {
			for _, o := range out {
				o.close()
			}
			return nil, err
		}
		out = append(out, rd)
	}
	return out, nil
}

// swapHandler lets each cold start install a freshly built stack behind a
// listener that stays put, so addresses (and the coordinator's ring) are the
// same for every start.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) store(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := s.h.Load()
	if h == nil {
		http.Error(w, "stack not started", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

// server is one HTTP listener of the stack.
type server struct {
	sw   swapHandler
	lis  net.Listener
	hs   *http.Server
	done chan struct{}
}

func newServer() (*server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{lis: lis, done: make(chan struct{})}
	s.hs = &http.Server{Handler: &s.sw, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		s.hs.Serve(lis) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) addr() string { return s.lis.Addr().String() }

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close() //nolint:errcheck // forcing stragglers closed
	}
	<-s.done
}

// reply is one HTTP response, fully read.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// post sends one JSON request and reads the whole reply. id, when positive,
// is sent in reqHeader for the traced handlers.
func post(c *http.Client, url string, body []byte, id int) (reply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id > 0 {
		req.Header.Set(reqHeader, fmt.Sprint(id))
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close() //nolint:errcheck // fully read
	b, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, resp.Header, b}, err
}

// traceID is the id post sends: the request's when traced, none otherwise.
func traceID(tr *tracer, id int) int {
	if tr == nil {
		return 0
	}
	return id
}

// serve is the production request path: HTTP /v1/locate into one locsrv
// configured as tagspin-server configures it, open-loop Poisson arrivals
// over at most two keep-alive connections, one replay reader per placement.
type serve struct {
	fleet
	regJSON []byte
	rate    float64
	conns   int
	sched   *rand.Rand

	front  *server
	srv    *locsrv.Server
	client *http.Client
	bodies [][]byte
	ids    atomic.Int64

	mu   sync.Mutex
	busy []bool
	rr   int
}

func newServe(seed int64, shape siteShape, rate float64, conns int) (*serve, error) {
	s, err := newSite(seed, shape, true, throughHandler(""))
	if err != nil {
		return nil, err
	}
	d := &serve{regJSON: s.calibrated, rate: rate, conns: conns,
		sched:  rand.New(rand.NewSource(seed ^ 0x5e7e)),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
		busy:   make([]bool, len(s.slots))}
	rds, err := startReaders(len(s.slots))
	if err != nil {
		return nil, err
	}
	if err := d.fleet.load(s, rds); err != nil {
		d.fleet.close()
		return nil, err
	}
	if d.front, err = newServer(); err != nil {
		d.fleet.close()
		return nil, err
	}
	for _, rd := range rds {
		body, err := json.Marshal(locsrv.LocateRequest{ReaderAddr: rd.addr(), Mode: "2d", DurationMillis: int(s.duration / time.Millisecond)})
		if err != nil {
			d.stop()
			return nil, err
		}
		d.bodies = append(d.bodies, body)
	}
	return d, nil
}

func (d *serve) newTracer() *tracer {
	return newTracer(false, true, "handler", d.fps, d.slotFor)
}

func (d *serve) start(tr *tracer) error {
	reg, err := loadRegistry(d.regJSON)
	if err != nil {
		return err
	}
	cfg := locsrv.Config{Registry: reg}
	if tr != nil {
		cfg.Locator = core.NewLocator(core.Config{Estimator: tr.estimator(core.GridEstimator{})})
		cfg.CollectStream = tr.collect(0, client.CollectRetryStream)
	}
	srv, err := locsrv.New(cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.middleware("handler", "http", 0, h)
	}
	d.srv = srv
	d.front.sw.store(h)
	if s := d.send(time.Now(), tr); s.failed > 0 || s.wrong > 0 {
		return errors.New("first answer failed or differs from the reference")
	}
	return nil
}

// drive runs the open loop: arrivals due at a Poisson process's times
// (conditioned on its count, so every run offers the same load), each sender
// taking the next due request once it is free. Latency counts from when a
// request was due, so a stall is charged to every request it delays.
func (d *serve) drive(until time.Time, tr *tracer) load {
	window := time.Until(until)
	n := int(d.rate*window.Seconds() + 0.5)
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(d.sched.Float64() * float64(window))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	start := time.Now()
	var next atomic.Int64
	loads := make([]load, d.conns)
	var wg sync.WaitGroup
	wg.Add(d.conns)
	for g := range loads {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(offsets[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					loads[g].lags = append(loads[g].lags, time.Since(due))
				}
				loads[g].samples = append(loads[g].samples, d.send(due, tr))
			}
		}()
	}
	wg.Wait()
	var l load
	for _, part := range loads {
		l.samples = append(l.samples, part.samples...)
		l.lags = append(l.lags, part.lags...)
	}
	return l
}

// send issues one locate to the next free reader.
func (d *serve) send(due time.Time, tr *tracer) sample {
	r := d.acquire()
	defer d.release(r)
	id := int(d.ids.Add(1))
	req := &request{id: id, start: due}
	if tr != nil {
		tr.begin(req, r)
	}
	sent := time.Now()
	rp, err := post(d.client, "http://"+d.front.addr()+"/v1/locate", d.bodies[r], traceID(tr, id))
	read := time.Now()
	sv := d.readers[r].lastServed()
	if tr != nil {
		tr.end(req,
			span{name: "request", slot: r, start: due, end: read},
			span{name: "http", parent: "request", slot: r, start: sent, end: read},
			span{name: "done", parent: "collect", slot: r, start: sv.done, end: sv.done})
	}
	s := sample{lat: read.Sub(due), tail: read.Sub(sv.done), items: 1, end: read}
	var ans locsrv.LocateResponse
	switch {
	case err != nil || rp.status != http.StatusOK || json.Unmarshal(rp.body, &ans) != nil:
		s.failed = 1
	case !d.check(r, &ans, sv):
		s.wrong = 1
	}
	return s
}

// acquire picks the next reader no in-flight request is using, so each
// reader's last served session belongs to the one request on it.
func (d *serve) acquire() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.busy {
		r := (d.rr + i) % len(d.busy)
		if !d.busy[r] {
			d.busy[r] = true
			d.rr = r + 1
			return r
		}
	}
	panic("more requests in flight than readers") // conns < readers by construction
}

func (d *serve) release(r int) {
	d.mu.Lock()
	d.busy[r] = false
	d.mu.Unlock()
}

func (d *serve) stats() serverStats {
	if d.srv == nil {
		return serverStats{}
	}
	return serverStats{locsrv: d.srv.Stats()}
}

func (d *serve) stop() {
	if d.front != nil {
		d.front.close()
	}
	d.client.CloseIdleConnections()
	d.fleet.close()
}

// portal is a warehouse portal calibrated at once: /v1/locate-batch of every
// reader into the coordinator, split over two locsrv replicas by the hash
// ring, solved by the maximum-likelihood backend on an uncalibrated
// registry. One connection, closed loop.
type portal struct {
	fleet
	regJSON []byte

	replicas [2]*server
	srvs     [2]*locsrv.Server
	front    *server
	co       *coord.Coordinator
	stopCo   context.CancelFunc
	coDone   chan struct{}
	client   *http.Client
	body     []byte // the production request: "backend":"ml"
	tbody    []byte // the traced request: replicas' default locator is ML
	ids      atomic.Int64
}

func newPortal(seed int64, shape siteShape) (*portal, error) {
	s, err := newSite(seed, shape, true, throughHandler("ml"))
	if err != nil {
		return nil, err
	}
	d := &portal{regJSON: s.uncalibrated,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
	for i := range d.replicas {
		if d.replicas[i], err = newServer(); err != nil {
			d.stop()
			return nil, err
		}
	}
	if d.front, err = newServer(); err != nil {
		d.stop()
		return nil, err
	}
	if err := d.build(nil); err != nil {
		d.stop()
		return nil, err
	}
	rds, err := d.balancedReaders(len(s.slots))
	if err != nil {
		d.stop()
		return nil, err
	}
	if err := d.fleet.load(s, rds); err != nil {
		d.stop()
		return nil, err
	}
	var reqs, treqs locsrv.BatchRequest
	for _, rd := range rds {
		item := locsrv.LocateRequest{ReaderAddr: rd.addr(), Mode: "2d", DurationMillis: int(s.duration / time.Millisecond)}
		treqs.Requests = append(treqs.Requests, item)
		item.Backend = "ml"
		reqs.Requests = append(reqs.Requests, item)
	}
	if d.body, err = json.Marshal(reqs); err != nil {
		d.stop()
		return nil, err
	}
	if d.tbody, err = json.Marshal(treqs); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// balancedReaders opens reader candidates until the coordinator's ring gives
// each replica n/2 of them, and keeps exactly those. Ports are assigned by
// the OS, so an unbalanced split would vary batch time from run to run for
// reasons no change to the program causes. Ownership is read from the
// coordinator itself: a locate with an invalid mode is routed to the owner,
// which rejects it without collecting, and the relay names the replica.
func (d *portal) balancedReaders(n int) (_ []*replayReader, err error) {
	owner := map[string]int{d.replicas[0].addr(): 0, d.replicas[1].addr(): 1}
	var picked [2][]*replayReader
	var spare []*replayReader
	defer func() {
		if err != nil {
			spare = append(spare, append(picked[0], picked[1]...)...)
		}
		for _, rd := range spare {
			rd.close()
		}
	}()
	for tries := 0; len(picked[0])+len(picked[1]) < n; tries++ {
		if tries == 8*n {
			return nil, errors.New("hash ring never balanced the portal's readers")
		}
		rd, err := newReplayReader(timeScale)
		if err != nil {
			return nil, err
		}
		spare = append(spare, rd)
		body, err := json.Marshal(locsrv.LocateRequest{ReaderAddr: rd.addr(), Mode: "probe"})
		if err != nil {
			return nil, err
		}
		rp, err := post(d.client, "http://"+d.front.addr()+"/v1/locate", body, 0)
		if err != nil {
			return nil, err
		}
		side, ok := owner[rp.header.Get("X-Tagspin-Replica")]
		if !ok || rp.status != http.StatusBadRequest || len(picked[side]) == n/2 {
			continue
		}
		spare = spare[:len(spare)-1]
		picked[side] = append(picked[side], rd)
	}
	return append(picked[0], picked[1]...), nil
}

func (d *portal) newTracer() *tracer {
	return newTracer(false, true, "replica", d.fps, d.slotFor)
}

// build installs a fresh stack: two replicas loading the registry, and a
// coordinator with both as static replicas, its health loop running as
// tagspin-coord runs it.
func (d *portal) build(tr *tracer) error {
	for i, rep := range d.replicas {
		reg, err := loadRegistry(d.regJSON)
		if err != nil {
			return err
		}
		cfg := locsrv.Config{Registry: reg}
		if tr != nil {
			cfg.Locator = core.NewLocator(core.Config{Estimator: tr.estimator(estimate.NewML(estimate.Config{}))})
			cfg.CollectStream = tr.collect(i, client.CollectRetryStream)
		}
		srv, err := locsrv.New(cfg)
		if err != nil {
			return err
		}
		h := srv.Handler()
		if tr != nil {
			h = tr.middleware("replica", "coord", i, h)
		}
		d.srvs[i] = srv
		rep.sw.store(h)
	}
	co, err := coord.New(coord.Config{Replicas: []string{d.replicas[0].addr(), d.replicas[1].addr()}})
	if err != nil {
		return err
	}
	d.stopLoop()
	ctx, cancel := context.WithCancel(context.Background())
	d.co, d.stopCo, d.coDone = co, cancel, make(chan struct{})
	go func() {
		defer close(d.coDone)
		co.Run(ctx)
	}()
	h := co.Handler()
	if tr != nil {
		h = tr.middleware("coord", "request", 0, h)
	}
	d.front.sw.store(h)
	return nil
}

func (d *portal) stopLoop() {
	if d.stopCo != nil {
		d.stopCo()
		<-d.coDone
		d.stopCo = nil
	}
}

func (d *portal) start(tr *tracer) error {
	if err := d.build(tr); err != nil {
		return err
	}
	if s := d.send(tr); s.failed > 0 || s.wrong > 0 {
		return errors.New("first batch failed or differs from the reference")
	}
	return nil
}

func (d *portal) drive(until time.Time, tr *tracer) load {
	var l load
	for time.Now().Before(until) {
		l.samples = append(l.samples, d.send(tr))
	}
	return l
}

// send issues one batch over every reader of the portal.
func (d *portal) send(tr *tracer) sample {
	req := &request{id: int(d.ids.Add(1)), start: time.Now()}
	body := d.body
	if tr != nil {
		body = d.tbody
		slots := make([]int, len(d.readers))
		for i := range slots {
			slots[i] = i
		}
		tr.begin(req, slots...)
	}
	sent := time.Now()
	rp, err := post(d.client, "http://"+d.front.addr()+"/v1/locate-batch", body, traceID(tr, req.id))
	read := time.Now()
	s := sample{lat: read.Sub(sent), items: len(d.readers), end: read}
	var out locsrv.BatchResponse
	if err != nil || rp.status != http.StatusOK || json.Unmarshal(rp.body, &out) != nil || len(out.Items) != len(d.readers) {
		out.Items = make([]locsrv.BatchItem, len(d.readers))
	}
	var last time.Time
	spans := []span{{name: "request", slot: -1, start: sent, end: read}}
	for r, item := range out.Items {
		sv := d.readers[r].lastServed()
		if sv.done.After(last) {
			last = sv.done
		}
		spans = append(spans, span{name: "done", parent: "collect", slot: r, start: sv.done, end: sv.done})
		switch {
		case item.Result == nil:
			s.failed++
		case !d.check(r, item.Result, sv):
			s.wrong++
		}
	}
	if tr != nil {
		tr.end(req, spans...)
	}
	s.tail = read.Sub(last)
	return s
}

func (d *portal) stats() serverStats {
	var st serverStats
	for _, srv := range d.srvs {
		if srv != nil {
			st.add(srv.Stats())
		}
	}
	if d.co != nil {
		st.rerouted = d.co.Stats().Rerouted
	}
	return st
}

func (d *portal) stop() {
	if d.front != nil {
		d.front.close()
	}
	d.stopLoop()
	for _, rep := range d.replicas {
		if rep != nil {
			rep.close()
		}
	}
	d.client.CloseIdleConnections()
	d.fleet.close()
}
