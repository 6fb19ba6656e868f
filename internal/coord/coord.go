// Package coord is the fleet coordinator tier: one HTTP front that
// multiplexes calibration sessions across N locsrv replicas. It keeps a
// replica table (a static seed list plus register/heartbeat entries), routes
// locate traffic by consistent hash over the reader address — sticky per
// reader, so each replica's trig-plan and session caches stay hot — and
// converts replica backpressure into resilience: a 503 + Retry-After, a 504
// server deadline, or a transient transport failure triggers shed-and-
// reroute to the next replica on the ring instead of a client-visible
// error, within a per-request reroute budget and jittered backoff.
//
// The paper's motivating deployment calibrates every antenna of a warehouse
// portal at once; this tier is what lets that fan-out land on a fleet
// instead of a single server.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/locsrv"
)

// Config configures a Coordinator.
type Config struct {
	// Replicas is the static seed list of locsrv API addresses
	// (host:port). Static replicas never expire; more can register at
	// runtime via POST /v1/replicas.
	Replicas []string
	// VirtualNodes is the per-replica point count on the hash ring; zero
	// means 64.
	VirtualNodes int
	// ProbeInterval is the active health-check period; zero means 2 s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe; zero means min(ProbeInterval, 1 s).
	ProbeTimeout time.Duration
	// TripAfter is how many consecutive failed probes (or routed transport
	// errors) take a replica out of the routing set; zero means 3.
	TripAfter int
	// RestoreAfter is how many consecutive healthy probes bring a tripped
	// replica back; zero means 2.
	RestoreAfter int
	// HeartbeatTTL expires dynamically registered replicas whose
	// heartbeats stop; zero means 15 s. Static replicas never expire.
	HeartbeatTTL time.Duration
	// RerouteBudget is how many *additional* replicas one request may be
	// rerouted to after its ring owner fails it; zero means 2, negative
	// disables rerouting.
	RerouteBudget int
	// RerouteBackoff is the base delay between reroute hops, doubled per
	// hop with the client package's ±50% jitter; zero means 25 ms.
	RerouteBackoff time.Duration
	// HTTPClient overrides the outbound client (tests); nil means a
	// dedicated client with no global timeout — locates are long-lived and
	// are bounded by the inbound request context instead.
	HTTPClient *http.Client
	// Logf, when non-nil, receives coordinator log lines.
	Logf func(format string, args ...any)
}

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval <= 0 {
		return 2 * time.Second
	}
	return c.ProbeInterval
}

func (c Config) probeTimeout() time.Duration {
	if c.ProbeTimeout > 0 {
		return c.ProbeTimeout
	}
	if pi := c.probeInterval(); pi < time.Second {
		return pi
	}
	return time.Second
}

func (c Config) tripAfter() int {
	if c.TripAfter <= 0 {
		return 3
	}
	return c.TripAfter
}

func (c Config) restoreAfter() int {
	if c.RestoreAfter <= 0 {
		return 2
	}
	return c.RestoreAfter
}

func (c Config) heartbeatTTL() time.Duration {
	if c.HeartbeatTTL <= 0 {
		return 15 * time.Second
	}
	return c.HeartbeatTTL
}

func (c Config) rerouteBudget() int {
	if c.RerouteBudget < 0 {
		return 0
	}
	if c.RerouteBudget == 0 {
		return 2
	}
	return c.RerouteBudget
}

func (c Config) rerouteBackoff() time.Duration {
	if c.RerouteBackoff <= 0 {
		return 25 * time.Millisecond
	}
	return c.RerouteBackoff
}

// Coordinator fronts a fleet of locsrv replicas.
type Coordinator struct {
	cfg   Config
	httpc *http.Client
	mux   *http.ServeMux

	// mu guards the replica table and the ring pointer; the ring itself is
	// immutable and rebuilt on every membership change.
	mu       sync.RWMutex
	replicas map[string]*replica
	ring     *ring

	// draining sheds new locates with 503 while in-flight proxies finish.
	draining atomic.Bool

	routed            atomic.Uint64
	rerouted          atomic.Uint64
	shedsAbsorbed     atomic.Uint64
	transportReroutes atomic.Uint64
	routeFailures     atomic.Uint64
	admissionRejects  atomic.Uint64
	heartbeats        atomic.Uint64
	expiredReplicas   atomic.Uint64
}

// New builds a Coordinator with the static replica seed list registered.
func New(cfg Config) (*Coordinator, error) {
	c := &Coordinator{
		cfg:      cfg,
		httpc:    cfg.HTTPClient,
		replicas: make(map[string]*replica, len(cfg.Replicas)),
	}
	if c.httpc == nil {
		c.httpc = &http.Client{}
	}
	now := time.Now()
	for _, addr := range cfg.Replicas {
		if addr == "" {
			return nil, errors.New("coord: empty replica address")
		}
		if _, dup := c.replicas[addr]; dup {
			return nil, fmt.Errorf("coord: duplicate replica %s", addr)
		}
		c.replicas[addr] = newReplica(addr, true, now)
	}
	c.rebuildRingLocked()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /v1/replicas", c.handleListReplicas)
	mux.HandleFunc("POST /v1/replicas", c.handleRegisterReplica)
	mux.HandleFunc("DELETE /v1/replicas/{addr}", c.handleDeregisterReplica)
	mux.HandleFunc("POST /v1/locate", c.handleLocate)
	mux.HandleFunc("POST /v1/locate-batch", c.handleLocateBatch)
	mux.HandleFunc("GET /v1/tags", c.handleListTags)
	mux.HandleFunc("POST /v1/tags", c.handleAddTag)
	mux.HandleFunc("DELETE /v1/tags/{epc}", c.handleRemoveTag)
	mux.HandleFunc("GET /v1/cluster-stats", c.handleClusterStats)
	c.mux = mux
	return c, nil
}

// Handler returns the coordinator's HTTP handler, with panic recovery.
func (c *Coordinator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			c.logf("coord: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
		}()
		c.mux.ServeHTTP(w, r)
	})
}

// Drain flips the coordinator into draining: the health check fails, new
// locates are shed with 503 + Retry-After, and in-flight proxies run to
// completion under http.Server.Shutdown.
func (c *Coordinator) Drain() { c.draining.Store(true) }

// config default passthroughs used by health.go.
func (c *Coordinator) probeInterval() time.Duration { return c.cfg.probeInterval() }
func (c *Coordinator) probeTimeout() time.Duration  { return c.cfg.probeTimeout() }
func (c *Coordinator) tripAfter() int               { return c.cfg.tripAfter() }
func (c *Coordinator) restoreAfter() int            { return c.cfg.restoreAfter() }
func (c *Coordinator) heartbeatTTL() time.Duration  { return c.cfg.heartbeatTTL() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// rebuildRingLocked rebuilds the immutable ring from the current table.
// Callers hold c.mu (New runs before the Coordinator escapes).
func (c *Coordinator) rebuildRingLocked() {
	addrs := make([]string, 0, len(c.replicas))
	for addr := range c.replicas {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	c.ring = newRing(addrs, c.cfg.VirtualNodes)
}

// writeJSON / writeError mirror locsrv's JSON envelope so coordinator and
// replica errors look the same to clients.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is not actionable
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// shedResponse writes the coordinator's own 503 backpressure shape.
func shedResponse(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if c.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// admit rejects new locate work while draining.
func (c *Coordinator) admit(w http.ResponseWriter) bool {
	if c.draining.Load() {
		c.admissionRejects.Add(1)
		shedResponse(w, errors.New("coordinator draining"))
		return false
	}
	return true
}

// RegisterRequest is the body of POST /v1/replicas: a replica announcing
// (or re-announcing — the same call is the heartbeat) its API address.
type RegisterRequest struct {
	Addr string `json:"addr"`
}

// ReplicaInfo is one row of the replica table as served to clients.
type ReplicaInfo struct {
	Addr    string `json:"addr"`
	Static  bool   `json:"static"`
	Healthy bool   `json:"healthy"`
	// Routed counts locate payloads sent to the replica; Sheds counts the
	// failures the coordinator absorbed and rerouted away from it.
	Routed uint64 `json:"routed"`
	Sheds  uint64 `json:"sheds"`
}

// ReplicasResponse carries the table, owner-sorted for stable output.
type ReplicasResponse struct {
	Replicas []ReplicaInfo `json:"replicas"`
}

// replicaTable snapshots the table sorted by address.
func (c *Coordinator) replicaTable() []ReplicaInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ReplicaInfo, 0, len(c.replicas))
	for _, rep := range c.replicas {
		out = append(out, ReplicaInfo{
			Addr:    rep.addr,
			Static:  rep.static,
			Healthy: rep.isHealthy(),
			Routed:  rep.routed.Load(),
			Sheds:   rep.sheds.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func (c *Coordinator) handleListReplicas(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ReplicasResponse{Replicas: c.replicaTable()})
}

func (c *Coordinator) handleRegisterReplica(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if _, err := locsrv.ReadJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode register: %w", err))
		return
	}
	if req.Addr == "" {
		writeError(w, http.StatusBadRequest, errors.New("addr required"))
		return
	}
	if err := checkReplicaAddr(req.Addr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c.heartbeats.Add(1)
	now := time.Now()
	c.mu.Lock()
	rep, known := c.replicas[req.Addr]
	if known {
		rep.beat(now)
	} else {
		c.replicas[req.Addr] = newReplica(req.Addr, false, now)
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
	if !known {
		c.logf("coord: replica %s registered", req.Addr)
	}
	writeJSON(w, http.StatusOK, ReplicasResponse{Replicas: c.replicaTable()})
}

// checkReplicaAddr rejects a registration address the coordinator could
// neither route to nor deregister: it must be host:port, as the announcer
// advertises, with nothing a URL would read as path, query or userinfo —
// "http://"+addr must parse with exactly addr as its host. That also rules
// out "." and "..", which DELETE /v1/replicas/{addr} could never name
// because the router cleans dot segments out of the path.
func checkReplicaAddr(addr string) error {
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "" {
		return fmt.Errorf("addr %q is not host:port", addr)
	}
	if u, err := url.Parse("http://" + addr); err != nil || u.Host != addr {
		return fmt.Errorf("addr %q is not a URL host", addr)
	}
	return nil
}

func (c *Coordinator) handleDeregisterReplica(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	c.mu.Lock()
	_, known := c.replicas[addr]
	if known {
		delete(c.replicas, addr)
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
	if !known {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown replica %s", addr))
		return
	}
	c.logf("coord: replica %s deregistered", addr)
	writeJSON(w, http.StatusOK, map[string]string{"removed": addr})
}

// candidates returns the replicas to try for key, ring owner first, healthy
// before tripped (tripped ones stay as a last resort — with every replica
// tripped, routing into one beats failing without trying), truncated to the
// reroute budget.
func (c *Coordinator) candidates(key string) []*replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seq := c.ring.sequence(key, len(c.replicas))
	healthy := make([]*replica, 0, len(seq))
	var tripped []*replica
	for _, addr := range seq {
		rep := c.replicas[addr]
		if rep == nil {
			continue
		}
		if rep.isHealthy() {
			healthy = append(healthy, rep)
		} else {
			tripped = append(tripped, rep)
		}
	}
	out := append(healthy, tripped...)
	if max := c.cfg.rerouteBudget() + 1; len(out) > max {
		out = out[:max]
	}
	return out
}

// errNoReplicas means the table is empty (or every candidate was consumed).
var errNoReplicas = errors.New("coord: no replicas available")

// proxyResult is one replica's reply, buffered for relay.
type proxyResult struct {
	status int
	body   []byte
	// addr is the replica that produced the reply.
	addr string
}

// rerouteable classifies a replica transport failure as worth trying the
// next ring candidate. The base taxonomy is the collection client's
// (client.Transient: dial failures, timeouts, connection resets); on top of
// it an abrupt EOF — a replica dying mid-response — is rerouteable here
// because locate requests are idempotent: re-collecting from the reader on
// another replica produces an equivalent answer.
func rerouteable(err error) bool {
	return client.Transient(err) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// forward sends one buffered payload to one replica and buffers the reply.
func (c *Coordinator) forward(ctx context.Context, rep *replica, path string, body []byte) (*proxyResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+rep.addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // fully read below
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &proxyResult{status: resp.StatusCode, body: b, addr: rep.addr}, nil
}

// route proxies one payload along key's ring sequence with shed-and-reroute:
// a 503 (replica at capacity or draining), a 504 (replica deadline — the
// work died there, another replica may finish in time), or a rerouteable
// transport error moves on to the next candidate after a jittered backoff;
// every other reply — including 499, the client is gone — relays as-is.
func (c *Coordinator) route(ctx context.Context, path, key string, body []byte) (*proxyResult, error) {
	cands := c.candidates(key)
	if len(cands) == 0 {
		c.routeFailures.Add(1)
		return nil, errNoReplicas
	}
	backoff := c.cfg.rerouteBackoff()
	var lastErr error
	for i, rep := range cands {
		if i > 0 {
			c.rerouted.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(client.RetryJitter(backoff)):
			}
			backoff *= 2
		}
		rep.routed.Add(1)
		res, err := c.forward(ctx, rep, path, body)
		if err != nil {
			if ctx.Err() != nil {
				// The *inbound* request died (client gone or its deadline
				// fired) — not the replica's fault, nothing to reroute.
				return nil, ctx.Err()
			}
			if !rerouteable(err) {
				c.routeFailures.Add(1)
				return nil, fmt.Errorf("replica %s: %w", rep.addr, err)
			}
			c.transportReroutes.Add(1)
			rep.sheds.Add(1)
			// Feed the trip machine so a dead replica leaves the routing
			// set before the next active probe sweep.
			if rep.noteFailure(c.tripAfter()) {
				c.logf("coord: replica %s tripped unhealthy (transport error on %s)", rep.addr, path)
			}
			lastErr = fmt.Errorf("replica %s: %w", rep.addr, err)
			c.logf("coord: %s via %s: transport error, rerouting: %v", path, rep.addr, err)
			continue
		}
		if res.status == http.StatusServiceUnavailable || res.status == http.StatusGatewayTimeout {
			c.shedsAbsorbed.Add(1)
			rep.sheds.Add(1)
			lastErr = fmt.Errorf("replica %s answered %d", rep.addr, res.status)
			c.logf("coord: %s via %s: %d, rerouting", path, rep.addr, res.status)
			continue
		}
		return res, nil
	}
	c.routeFailures.Add(1)
	return nil, fmt.Errorf("coord: all %d route candidates failed: %w", len(cands), lastErr)
}

// relay writes a buffered replica reply to the client unchanged.
func relay(w http.ResponseWriter, res *proxyResult) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Tagspin-Replica", res.addr)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // client gone is not actionable
}

// routeErrorStatus maps a route failure to the client-visible status.
func routeErrorStatus(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, locsrv.StatusClientClosedRequest, err)
	default:
		// Exhausted budget or an empty table: the cluster is saturated or
		// degraded — the same "retry later" shape replicas shed with, so
		// clients need one backoff policy for both tiers.
		shedResponse(w, err)
	}
}

func (c *Coordinator) handleLocate(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w) {
		return
	}
	var req locsrv.LocateRequest
	body, err := locsrv.ReadJSON(w, r, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if req.ReaderAddr == "" {
		writeError(w, http.StatusBadRequest, errors.New("readerAddr required"))
		return
	}
	c.routed.Add(1)
	res, err := c.route(r.Context(), "/v1/locate", req.ReaderAddr, body)
	if err != nil {
		routeErrorStatus(w, err)
		return
	}
	relay(w, res)
}

// handleLocateBatch splits a batch by ring owner, forwards each sub-batch to
// its replica concurrently (with the same shed-and-reroute semantics per
// sub-batch), and reassembles the items in request order.
func (c *Coordinator) handleLocateBatch(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w) {
		return
	}
	var req locsrv.BatchRequest
	if _, err := locsrv.ReadJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Requests) > locsrv.MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(req.Requests), locsrv.MaxBatch))
		return
	}
	// Group item indices by ring owner so each reader's traffic stays
	// sticky to its replica even inside batches.
	c.mu.RLock()
	ring := c.ring
	c.mu.RUnlock()
	groups := make(map[string][]int)
	order := make([]string, 0, 4)
	for i, item := range req.Requests {
		owner := ring.owner(item.ReaderAddr)
		if _, seen := groups[owner]; !seen {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], i)
	}
	items := make([]locsrv.BatchItem, len(req.Requests))
	var wg sync.WaitGroup
	wg.Add(len(order))
	for _, owner := range order {
		go func(idx []int) {
			defer wg.Done()
			sub := locsrv.BatchRequest{Requests: make([]locsrv.LocateRequest, len(idx))}
			for j, i := range idx {
				sub.Requests[j] = req.Requests[i]
			}
			subBody, err := json.Marshal(sub)
			if err != nil {
				c.failGroup(items, idx, sub, err)
				return
			}
			c.routed.Add(uint64(len(idx)))
			// The group's first reader keys the route; all members share
			// the owner, so the reroute sequence is the same for any key.
			res, err := c.route(r.Context(), "/v1/locate-batch", sub.Requests[0].ReaderAddr, subBody)
			if err != nil {
				c.failGroup(items, idx, sub, err)
				return
			}
			var out locsrv.BatchResponse
			if err := json.Unmarshal(res.body, &out); err != nil || len(out.Items) != len(idx) {
				c.failGroup(items, idx, sub, fmt.Errorf("replica %s: malformed batch reply (%d items, err %v)", res.addr, len(out.Items), err))
				return
			}
			for j, i := range idx {
				items[i] = out.Items[j]
			}
		}(groups[owner])
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, locsrv.BatchResponse{Items: items})
}

// failGroup fills a routed group's items with the route failure.
func (c *Coordinator) failGroup(items []locsrv.BatchItem, idx []int, sub locsrv.BatchRequest, err error) {
	for j, i := range idx {
		items[i] = locsrv.BatchItem{ReaderAddr: sub.Requests[j].ReaderAddr, Error: err.Error()}
	}
}

// handleListTags serves the registry from the first replica that answers —
// tag writes fan out to all replicas, so any reachable registry is
// authoritative.
func (c *Coordinator) handleListTags(w http.ResponseWriter, r *http.Request) {
	var lastErr error = errNoReplicas
	for _, info := range c.replicaTable() {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, "http://"+info.Addr+"/v1/tags", nil)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // fully read
		if err != nil {
			lastErr = err
			continue
		}
		relay(w, &proxyResult{status: resp.StatusCode, body: b, addr: info.Addr})
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("no replica answered /v1/tags: %w", lastErr))
}

// fanOut sends the same registry mutation to every replica; the fleet's
// registries must agree or locates would answer differently per route.
func (c *Coordinator) fanOut(ctx context.Context, method, path string, body []byte) (*proxyResult, error) {
	table := c.replicaTable()
	if len(table) == 0 {
		return nil, errNoReplicas
	}
	var first *proxyResult
	var failures []string
	for _, info := range table {
		req, err := http.NewRequestWithContext(ctx, method, "http://"+info.Addr+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", info.Addr, err))
			continue
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // fully read
		if rerr != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", info.Addr, rerr))
			continue
		}
		if resp.StatusCode >= 300 {
			failures = append(failures, fmt.Sprintf("%s: status %d: %s", info.Addr, resp.StatusCode, bytes.TrimSpace(b)))
			continue
		}
		if first == nil {
			first = &proxyResult{status: resp.StatusCode, body: b, addr: info.Addr}
		}
	}
	if len(failures) > 0 {
		return nil, fmt.Errorf("%s %s failed on %d/%d replicas: %s", method, path, len(failures), len(table), failures)
	}
	return first, nil
}

func (c *Coordinator) handleAddTag(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, locsrv.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	res, err := c.fanOut(r.Context(), http.MethodPost, "/v1/tags", body)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, res)
}

func (c *Coordinator) handleRemoveTag(w http.ResponseWriter, r *http.Request) {
	res, err := c.fanOut(r.Context(), http.MethodDelete, "/v1/tags/"+r.PathValue("epc"), nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, res)
}
