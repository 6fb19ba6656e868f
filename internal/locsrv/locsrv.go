// Package locsrv is the central localization server of the Tagspin
// deployment (§II): it owns the spinning-tag registry, collects phase
// snapshots from readers over the wire protocol, runs the localization
// pipeline, and exposes an HTTP/JSON control API.
package locsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/estimate"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/spectrum"
)

// CollectFunc gathers snapshots from a reader; it exists so tests can
// substitute a canned collector for the real network client. The context is
// the (possibly deadline-bounded) request context: implementations must
// return promptly once it is done.
type CollectFunc func(ctx context.Context, addr string, cfg client.Config) (core.Observations, error)

// CollectStreamFunc is CollectFunc with per-report streaming: start is
// invoked once per collection attempt and returns the sink that attempt
// feeds (see client.CollectRetryStream). Tests can substitute a canned
// streaming collector; the default is the real network client.
type CollectStreamFunc func(ctx context.Context, addr string, cfg client.Config, start func() client.ReportFunc) (core.Observations, error)

// Config configures the server.
type Config struct {
	// Registry is the spinning-tag store. Required.
	Registry *registry.Registry
	// Locator runs the pipeline; nil means a default core.Locator built
	// with Search. A caller-supplied locator carries its own config.
	Locator *core.Locator
	// Search tunes the default locator's peak search (core.Config.Search):
	// coarse grid steps and refinement rounds. The zero value keeps the
	// defaults. Ignored when Locator is non-nil.
	Search spectrum.SearchOptions
	// Collect gathers snapshots; nil means client.CollectRetry (the
	// network client with transient-failure retries). Supplying Collect
	// without CollectStream pins the server to the batch pipeline, since a
	// plain collector cannot feed mid-session accumulation.
	Collect CollectFunc
	// CollectStream gathers snapshots with per-report streaming, letting
	// locates overlap spectrum accumulation with collection; nil means
	// client.CollectRetryStream when Collect is also nil. See
	// DisableStreaming for when the server streams.
	CollectStream CollectStreamFunc
	// DisableStreaming forces the batch pipeline even when a streaming
	// collector is available. By default single locates stream: snapshots
	// are checked and prepared as spectrum terms in per-tag accumulators as
	// they arrive, so only the peak search and solve remain after collection
	// ends. Batch items never stream; they collect through the same
	// collector with no per-report sink and run the batch pipeline.
	DisableStreaming bool
	// Client tunes collection sessions (including retry policy:
	// MaxAttempts, BaseBackoff).
	Client client.Config
	// BatchConcurrency, when positive, bounds how many batch items run at
	// once: open reader sessions, their buffers and retry timers, and each
	// item's pipeline working set. Zero starts every item at once (MaxBatch
	// caps a batch), so a batch lasts about one collect, not one collect per
	// wave of items: a locate spends most of its time waiting on the reader.
	BatchConcurrency int
	// MaxInFlight bounds admitted locate/locate-batch HTTP requests (one
	// slot per request, whatever its batch size). Beyond it the server
	// sheds load with 503 + Retry-After instead of queueing: every admitted
	// request's scans already share the process's CPUs, so queued requests
	// would only accumulate latency until they hit RequestTimeout (504) with
	// no extra throughput. Zero means 2 × runtime.GOMAXPROCS(0); negative
	// disables admission control.
	MaxInFlight int
	// RequestTimeout bounds each locate/locate-batch request end to end;
	// zero means no server-imposed deadline. Batch items inherit the
	// request context, so one hung reader cannot pin a batch slot past the
	// deadline.
	RequestTimeout time.Duration
	// Logf, when non-nil, receives request log lines.
	Logf func(format string, args ...any)
}

// Server implements the HTTP API.
type Server struct {
	cfg     Config
	locator *core.Locator
	// mlLocator shares the locator's configuration with the joint
	// maximum-likelihood solve backend swapped in; requests select it with
	// "backend": "ml".
	mlLocator *core.Locator
	collect   CollectFunc
	mux       *http.ServeMux

	// collectStream, when non-nil, is the streaming collector; streaming
	// reports whether locates collect through it (single locates with a
	// per-report sink, batch items with none).
	collectStream CollectStreamFunc
	streaming     bool

	// admit is the admission-control semaphore for locate endpoints: one
	// buffered slot per admitted request. Nil disables admission control.
	admit chan struct{}

	// draining, once set, sheds every new locate with 503 and fails the
	// health check so a fleet coordinator stops routing here; in-flight
	// requests keep running to completion (the HTTP server's Shutdown
	// waits for them).
	draining atomic.Bool

	locates          atomic.Uint64
	mlLocates        atomic.Uint64
	batches          atomic.Uint64
	admissionRejects atomic.Uint64
	malformedReports atomic.Uint64

	streamLocates      atomic.Uint64
	streamFallbackTags atomic.Uint64
	snapshotsStreamed  atomic.Uint64
	maxAccumBacklog    atomic.Int64
	finalizeCount      atomic.Uint64
	finalizeNsTotal    atomic.Int64
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("locsrv: nil registry")
	}
	s := &Server{
		cfg:     cfg,
		locator: cfg.Locator,
		collect: cfg.Collect,
	}
	if s.locator == nil {
		s.locator = core.NewLocator(core.Config{Search: cfg.Search})
	}
	s.mlLocator = s.locator.WithEstimator(estimate.NewML(estimate.Config{}))
	if s.collect == nil {
		s.collect = client.CollectRetry
	}
	// Streaming is the default on the real network client; a caller-supplied
	// batch Collect (canned fixtures, custom transports) keeps the batch
	// pipeline unless it also supplies a CollectStream.
	switch {
	case cfg.CollectStream != nil:
		s.collectStream = cfg.CollectStream
	case cfg.Collect == nil:
		s.collectStream = client.CollectRetryStream
	}
	s.streaming = s.collectStream != nil && !cfg.DisableStreaming
	if cfg.MaxInFlight >= 0 {
		slots := cfg.MaxInFlight
		if slots == 0 {
			slots = 2 * runtime.GOMAXPROCS(0)
		}
		s.admit = make(chan struct{}, slots)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/tags", s.handleListTags)
	mux.HandleFunc("POST /v1/tags", s.handleAddTag)
	mux.HandleFunc("DELETE /v1/tags/{epc}", s.handleRemoveTag)
	mux.HandleFunc("POST /v1/locate", s.handleLocate)
	mux.HandleFunc("POST /v1/locate-batch", s.handleLocateBatch)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler. Panics in request handlers are
// converted to 500 JSON responses instead of tearing down the connection.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// recoverPanics is middleware that turns a handler panic into a JSON 500.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort a
// response and must keep its net/http semantics.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.logf("locsrv: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// requestContext derives the working context for one request: the client's
// own context (canceled when the client disconnects), bounded by
// RequestTimeout when configured.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// Drain flips the server into draining: the health check starts failing (a
// coordinator health-trips the replica and stops routing to it), and every
// new locate is shed with 503 + Retry-After while in-flight requests run to
// completion. Callers sequence it before http.Server.Shutdown so the drain
// window actually empties instead of racing new admissions.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// tryAdmit attempts to take an admission slot for one locate request,
// without blocking. On saturation — or while the server is draining — it
// writes the 503 shed-load response — with a Retry-After hint so
// well-behaved clients back off — and returns false. This is deliberately
// distinct from the 504 deadline path: 503 means "never started, retry
// elsewhere/later", 504 means "started and ran out of time".
func (s *Server) tryAdmit(w http.ResponseWriter) bool {
	if s.draining.Load() {
		s.admissionRejects.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return false
	}
	if s.admit == nil {
		return true
	}
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		s.admissionRejects.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("server at capacity (%d locate requests in flight)", cap(s.admit)))
		return false
	}
}

// releaseAdmit returns an admission slot taken by tryAdmit.
func (s *Server) releaseAdmit() {
	if s.admit != nil {
		<-s.admit
	}
}

// Stats is a point-in-time snapshot of the server's request counters,
// shaped for expvar publication.
type Stats struct {
	// Locates and Batches count requests that passed admission (whatever
	// their eventual outcome).
	Locates uint64
	Batches uint64
	// MLLocates counts locate items solved by the maximum-likelihood
	// backend ("backend": "ml"); the rest used the grid backend.
	MLLocates uint64
	// AdmissionRejects counts requests shed with 503 (saturation or
	// draining).
	AdmissionRejects uint64
	// MalformedReports counts tag reports skipped by collection sessions
	// (out-of-band channel indices — see client.Config.OnMalformed).
	MalformedReports uint64
	// Draining reports whether the server has begun its shutdown drain.
	Draining bool
	// InFlight and MaxInFlight describe the admission semaphore; both are
	// 0 when admission control is disabled.
	InFlight    int
	MaxInFlight int
	// StreamLocates counts locate items that ran the streaming pipeline;
	// StreamFallbackTags counts the per-tag batch fallbacks inside them
	// (disordered arrivals, channel mismatches, bootstrap-kind changes).
	// Session length never forces a fallback.
	StreamLocates      uint64
	StreamFallbackTags uint64
	// SnapshotsStreamed totals snapshots added to accumulators (checked and
	// prepared as spectrum terms) while their collection sessions were still
	// running.
	SnapshotsStreamed uint64
	// MaxAccumBacklog is the accumulation queue's high-water mark across
	// all streamed locates — how far term preparation ever lagged the wire.
	MaxAccumBacklog int64
	// FinalizeCount and FinalizeNsTotal measure every successful locate's
	// post-collect compute, streamed or not: total time from the end of
	// collection to the answer (peak search + solve, plus term preparation
	// on the batch pipeline) over that many locates.
	FinalizeCount   uint64
	FinalizeNsTotal int64
	// SpectrumSearch is the process-wide coarse-search routing tally —
	// which route (harmonic Q/R synthesis in 2D, on uniform and angle
	// grids alike, and in 3D; the dense oracle; all-cells profile
	// synthesis) actually served the scans behind this server's locates;
	// the tagspin_spectrum_search expvar publishes the same fields under
	// the same keys. A fleet dashboard that sees Dense2D climbing while
	// HarmonicR2D stays flat is watching a routing regression, not a load
	// change.
	SpectrumSearch spectrum.SearchStats
}

// Stats reports the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Locates:            s.locates.Load(),
		MLLocates:          s.mlLocates.Load(),
		Batches:            s.batches.Load(),
		AdmissionRejects:   s.admissionRejects.Load(),
		MalformedReports:   s.malformedReports.Load(),
		Draining:           s.draining.Load(),
		StreamLocates:      s.streamLocates.Load(),
		StreamFallbackTags: s.streamFallbackTags.Load(),
		SnapshotsStreamed:  s.snapshotsStreamed.Load(),
		MaxAccumBacklog:    s.maxAccumBacklog.Load(),
		FinalizeCount:      s.finalizeCount.Load(),
		FinalizeNsTotal:    s.finalizeNsTotal.Load(),
	}
	if s.admit != nil {
		st.InFlight = len(s.admit)
		st.MaxInFlight = cap(s.admit)
	}
	st.SpectrumSearch = spectrum.SearchStatsSnapshot()
	return st
}

// noteStream folds one finished streamed locate into the server counters.
func (s *Server) noteStream(st core.StreamStats) {
	s.streamLocates.Add(1)
	s.streamFallbackTags.Add(uint64(st.FallbackTags))
	s.snapshotsStreamed.Add(uint64(st.Snapshots))
	for {
		cur := s.maxAccumBacklog.Load()
		if st.MaxBacklog <= cur || s.maxAccumBacklog.CompareAndSwap(cur, st.MaxBacklog) {
			break
		}
	}
}

// noteFinalize counts one successful locate's post-collect compute.
func (s *Server) noteFinalize(d time.Duration) {
	s.finalizeCount.Add(1)
	s.finalizeNsTotal.Add(int64(d))
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("locsrv: encode response", "err", err)
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError writes a JSON error.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStats serves the counter snapshot on the API listener so a fleet
// coordinator can roll up replica stats without reaching the (possibly
// firewalled, possibly disabled) debug listener.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleListTags(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Registry.List())
}

func (s *Server) handleAddTag(w http.ResponseWriter, r *http.Request) {
	var e registry.Entry
	if _, err := ReadJSON(w, r, &e); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode entry: %w", err))
		return
	}
	if err := s.cfg.Registry.Add(e); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, registry.ErrDuplicate) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	s.logf("locsrv: registered tag %s", e.EPC)
	writeJSON(w, http.StatusCreated, e)
}

func (s *Server) handleRemoveTag(w http.ResponseWriter, r *http.Request) {
	epc := r.PathValue("epc")
	if err := s.cfg.Registry.Remove(epc); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, registry.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": epc})
}

// LocateRequest asks the server to localize one reader.
type LocateRequest struct {
	// ReaderAddr is the reader's protocol endpoint (host:port).
	ReaderAddr string `json:"readerAddr"`
	// Mode is "2d" or "3d"; empty means "2d".
	Mode string `json:"mode,omitempty"`
	// Backend selects the solve backend: "grid" (bearing intersection,
	// the default) or "ml" (joint maximum likelihood with confidence
	// output). Empty means "grid".
	Backend string `json:"backend,omitempty"`
	// DurationMillis overrides the session length in simulated
	// milliseconds.
	DurationMillis int `json:"durationMillis,omitempty"`
}

// BearingResult is the per-tag part of a localization response.
type BearingResult struct {
	EPC        string  `json:"epc"`
	AzimuthRad float64 `json:"azimuthRad"`
	PolarRad   float64 `json:"polarRad,omitempty"`
	Power      float64 `json:"power"`
	Snapshots  int     `json:"snapshots"`
}

// ConfidenceResult is the uncertainty block of a localization response,
// present when the solve backend quantifies uncertainty (the ml backend).
type ConfidenceResult struct {
	// CovM2 is the position covariance in m² (2D responses use the
	// upper-left 2×2 block).
	CovM2 [3][3]float64 `json:"covM2"`
	// SemiMajorM/SemiMinorM/OrientationRad describe the horizontal 1σ
	// confidence ellipse (≈39% mass for a 2D Gaussian).
	SemiMajorM     float64 `json:"semiMajorM"`
	SemiMinorM     float64 `json:"semiMinorM"`
	OrientationRad float64 `json:"orientationRad"`
	// SigmaZM is the 1σ height uncertainty (3D only).
	SigmaZM float64 `json:"sigmaZM,omitempty"`
	// LogLikelihood is the joint log-likelihood at the optimum;
	// MirrorLogLikelihood (3D only) is the rejected ±z candidate's — the
	// margin says how decisively the ambiguity was resolved.
	LogLikelihood       float64 `json:"logLikelihood"`
	MirrorLogLikelihood float64 `json:"mirrorLogLikelihood,omitempty"`
}

// LocateResponse carries a localization result.
type LocateResponse struct {
	Mode     string          `json:"mode"`
	Backend  string          `json:"backend,omitempty"`
	Position [3]float64      `json:"positionM"`
	Mirror   *[3]float64     `json:"mirrorM,omitempty"`
	ZSpread  float64         `json:"zSpreadM,omitempty"`
	Bearings []BearingResult `json:"bearings"`
	// Confidence is present when the backend reports uncertainty.
	Confidence *ConfidenceResult `json:"confidence,omitempty"`
}

func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	if !s.tryAdmit(w) {
		return
	}
	defer s.releaseAdmit()
	s.locates.Add(1)
	var req LocateRequest
	if _, err := ReadJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	spinning, err := s.cfg.Registry.SpinningTags()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	resp, serr := s.locateOne(ctx, req, spinning, s.streaming)
	if serr != nil {
		writeError(w, serr.status, serr)
		return
	}
	s.logf("locsrv: located reader %s (%s) at %v", req.ReaderAddr, resp.Mode, resp.Position)
	writeJSON(w, http.StatusOK, resp)
}

// bearingResults converts pipeline bearings for the wire.
func bearingResults(in []core.TagEstimate) []BearingResult {
	out := make([]BearingResult, 0, len(in))
	for _, b := range in {
		out = append(out, BearingResult{
			EPC:        b.EPC.String(),
			AzimuthRad: b.Azimuth,
			PolarRad:   b.Polar,
			Power:      b.Power,
			Snapshots:  b.Snapshots,
		})
	}
	return out
}

// BatchRequest asks the server to localize several readers concurrently —
// the paper's motivating deployment calibrates all of a portal's antennas
// at once.
type BatchRequest struct {
	Requests []LocateRequest `json:"requests"`
}

// BatchItem is one reader's outcome within a batch.
type BatchItem struct {
	ReaderAddr string          `json:"readerAddr"`
	Error      string          `json:"error,omitempty"`
	Result     *LocateResponse `json:"result,omitempty"`
}

// BatchResponse carries all outcomes, in request order.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// MaxBatch bounds a single batch request; the coordinator enforces the same
// bound so a batch it accepts is one its replicas accept.
const MaxBatch = 64

// MaxBodyBytes bounds every request body a server reads, and the bodies the
// coordinator buffers before forwarding: far above any legal batch, yet
// small enough that a client cannot make a server read gigabytes before
// the body is validated. A longer body is answered 400.
const MaxBodyBytes = 1 << 20

// ReadJSON reads r's body, at most MaxBodyBytes, and decodes it into v as
// exactly one JSON value: trailing data other than whitespace is an error,
// as in json.Unmarshal. The replica and the coordinator read every request
// body through it, so both tiers accept the same bodies. It returns the
// body for callers that forward it.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	return body, json.Unmarshal(body, v)
}

func (s *Server) handleLocateBatch(w http.ResponseWriter, r *http.Request) {
	if !s.tryAdmit(w) {
		return
	}
	defer s.releaseAdmit()
	s.batches.Add(1)
	var req BatchRequest
	if _, err := ReadJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Requests) > MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(req.Requests), MaxBatch))
		return
	}
	spinning, err := s.cfg.Registry.SpinningTags()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Every item starts at once unless BatchConcurrency caps them: an item
	// spends most of its life waiting on its reader's session, so running
	// items in waves would make a batch last one collect per wave. Items
	// inherit the request context: when the client disconnects or
	// RequestTimeout fires, queued items fail fast instead of starting
	// doomed collects, and running ones are canceled.
	ctx, cancel := s.requestContext(r)
	defer cancel()
	items := make([]BatchItem, len(req.Requests))
	limit := s.cfg.BatchConcurrency
	if limit <= 0 || limit > len(items) {
		limit = len(items)
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	wg.Add(len(req.Requests))
	for i := range req.Requests {
		go func(i int) {
			defer wg.Done()
			item := BatchItem{ReaderAddr: req.Requests[i].ReaderAddr}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				item.Error = fmt.Sprintf("batch item not started: %v", ctx.Err())
				items[i] = item
				return
			}
			defer func() { <-sem }()
			resp, serr := s.locateOne(ctx, req.Requests[i], spinning, false)
			if serr != nil {
				item.Error = serr.Error()
			} else {
				item.Result = resp
			}
			items[i] = item
		}(i)
	}
	wg.Wait()
	s.logf("locsrv: batch of %d located", len(items))
	writeJSON(w, http.StatusOK, BatchResponse{Items: items})
}

// statusError pairs the HTTP status the single-locate endpoint sends with
// the underlying error; the batch endpoint flattens it to a string.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// StatusClientClosedRequest is the nginx-convention 499 status for a
// request abandoned by its own client. It is deliberately distinct from 504:
// a 504 means the *server's* deadline expired mid-work (another replica
// might finish in time, so a fleet coordinator may reroute it), while a 499
// means the requester is gone — rerouting would burn a replica slot
// computing an answer nobody will read.
const StatusClientClosedRequest = 499

// deadlineStatus maps an error to the HTTP status for a failed collect or
// solve: context.DeadlineExceeded is the server-imposed deadline (504,
// reroutable), context.Canceled is the client disconnecting mid-request
// (499, not reroutable — the client is gone), everything else is the given
// fallback. Mapping Canceled to 504 (as this used to) polluted the error
// taxonomy the coordinator's reroute logic keys on.
func deadlineStatus(err error, fallback int) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return StatusClientClosedRequest
	}
	return fallback
}

// locateOne validates one request, collects snapshots from the reader, and
// runs the localization pipeline. When stream is set, spectrum terms
// accumulate while the session is still reporting, so only the peak search
// and solve remain after collection; the answer is bit-identical to the
// batch pipeline's. The single-locate handler and every batch item share
// this path, so validation, error mapping, and response construction cannot
// drift between the two. The context bounds the whole item: collect and
// solve are both canceled when it expires.
func (s *Server) locateOne(ctx context.Context, req LocateRequest, spinning []core.SpinningTag, stream bool) (*LocateResponse, *statusError) {
	if req.ReaderAddr == "" {
		return nil, &statusError{http.StatusBadRequest, errors.New("readerAddr required")}
	}
	mode := req.Mode
	if mode == "" {
		mode = "2d"
	}
	if mode != "2d" && mode != "3d" {
		return nil, &statusError{http.StatusBadRequest, fmt.Errorf("unknown mode %q", mode)}
	}
	if req.DurationMillis < 0 {
		return nil, &statusError{http.StatusBadRequest, fmt.Errorf("negative durationMillis %d", req.DurationMillis)}
	}
	loc := s.locator
	switch req.Backend {
	case "", "grid":
	case "ml":
		loc = s.mlLocator
		s.mlLocates.Add(1)
	default:
		return nil, &statusError{http.StatusBadRequest, fmt.Errorf("unknown backend %q (want \"grid\" or \"ml\")", req.Backend)}
	}
	ccfg := s.cfg.Client
	if req.DurationMillis > 0 {
		ccfg.Duration = time.Duration(req.DurationMillis) * time.Millisecond
	}
	// Count skipped malformed reports into the server stats, chaining any
	// hook the caller installed.
	callerHook := ccfg.OnMalformed
	ccfg.OnMalformed = func(err error) {
		s.malformedReports.Add(1)
		if callerHook != nil {
			callerHook(err)
		}
	}
	// One collect: through a Stream's sink when stream is set, else through
	// the streaming collector with no sink (retries, deadlines and caller
	// wrapping behave as for a streamed locate), else the plain collector.
	var st *core.Stream
	var obs core.Observations
	var err error
	switch {
	case stream:
		if mode == "3d" {
			st = loc.NewStream3D(spinning)
		} else {
			st = loc.NewStream2D(spinning)
		}
		defer st.Close()
		// Each collection attempt resets the stream: a failed attempt has
		// already added a partial prefix that must not leak into the retry.
		obs, err = s.collectStream(ctx, req.ReaderAddr, ccfg, func() client.ReportFunc {
			st.Reset()
			return st.Report
		})
	case s.streaming:
		obs, err = s.collectStream(ctx, req.ReaderAddr, ccfg, func() client.ReportFunc { return nil })
	default:
		obs, err = s.collect(ctx, req.ReaderAddr, ccfg)
	}
	if err != nil {
		return nil, &statusError{deadlineStatus(err, http.StatusBadGateway), fmt.Errorf("collect from %s: %w", req.ReaderAddr, err)}
	}
	if st != nil {
		defer func() { s.noteStream(st.Stats()) }()
	}
	start := time.Now()
	var resp *LocateResponse
	switch mode {
	case "3d":
		var res core.Result3D
		if st != nil {
			res, err = st.Finalize3D(ctx, obs)
		} else {
			res, err = loc.Locate3DContext(ctx, spinning, obs)
		}
		resp = respond3D(res)
	default:
		var res core.Result2D
		if st != nil {
			res, err = st.Finalize2D(ctx, obs)
		} else {
			res, err = loc.Locate2DContext(ctx, spinning, obs)
		}
		resp = respond2D(res)
	}
	if err != nil {
		return nil, &statusError{deadlineStatus(err, http.StatusUnprocessableEntity), err}
	}
	s.noteFinalize(time.Since(start))
	return resp, nil
}

// confidenceResult shapes a pipeline confidence block for the wire.
func confidenceResult(c *core.Confidence) *ConfidenceResult {
	if c == nil {
		return nil
	}
	return &ConfidenceResult{
		CovM2:               c.Cov,
		SemiMajorM:          c.SemiMajorM,
		SemiMinorM:          c.SemiMinorM,
		OrientationRad:      c.OrientationRad,
		SigmaZM:             c.SigmaZM,
		LogLikelihood:       c.LogLikelihood,
		MirrorLogLikelihood: c.MirrorLogLikelihood,
	}
}

// respond2D shapes a 2D pipeline result for the wire.
func respond2D(res core.Result2D) *LocateResponse {
	return &LocateResponse{
		Mode:       "2d",
		Backend:    res.Backend,
		Position:   [3]float64{res.Position.X, res.Position.Y, 0},
		Bearings:   bearingResults(res.Bearings),
		Confidence: confidenceResult(res.Confidence),
	}
}

// respond3D shapes a 3D pipeline result for the wire.
func respond3D(res core.Result3D) *LocateResponse {
	mirror := [3]float64{res.Mirror.X, res.Mirror.Y, res.Mirror.Z}
	return &LocateResponse{
		Mode:       "3d",
		Backend:    res.Backend,
		Position:   [3]float64{res.Position.X, res.Position.Y, res.Position.Z},
		Mirror:     &mirror,
		ZSpread:    res.ZSpread,
		Bearings:   bearingResults(res.Bearings),
		Confidence: confidenceResult(res.Confidence),
	}
}
