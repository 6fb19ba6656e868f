package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/coord"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/testbed"
)

// fleetFixture is a canned scenario shared by every replica of a test
// fleet: one set of calibrated entries and one set of observations any
// reader address resolves to. Each replica gets its OWN registry built from
// the entries — replicas are independent processes in production, and the
// tag fan-out path depends on that (a shared registry would turn the second
// replica's Add into a duplicate).
type fleetFixture struct {
	entries []registry.Entry
	obs     core.Observations
}

var (
	fixtureOnce   sync.Once
	cachedFixture *fleetFixture
	fixtureErr    error
)

// newFleetFixture builds the scenario once per test binary — the simulated
// collect is by far the most expensive step and is identical for every test.
func newFleetFixture(t *testing.T) *fleetFixture {
	t.Helper()
	fixtureOnce.Do(func() { cachedFixture, fixtureErr = buildFleetFixture() })
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return cachedFixture
}

func buildFleetFixture() (*fleetFixture, error) {
	rng := rand.New(rand.NewSource(99))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-1.7, 1.3, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		return nil, err
	}
	col, err := sc.Collect(rng)
	if err != nil {
		return nil, err
	}
	f := &fleetFixture{obs: col.Obs}
	for _, st := range registered {
		f.entries = append(f.entries, registry.EntryFromSpinningTag(st))
	}
	return f, nil
}

func (f *fleetFixture) newRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := registry.New()
	for _, e := range f.entries {
		if err := reg.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// startReplica brings up one real locsrv replica with a canned collector
// that sleeps for delay (simulating the collection window) and returns its
// host:port address alongside the handles.
func (f *fleetFixture) startReplica(t *testing.T, delay time.Duration, cfg locsrv.Config) (string, *locsrv.Server, *httptest.Server) {
	t.Helper()
	cfg.Registry = f.newRegistry(t)
	if cfg.Locator == nil {
		// Coordinator tests exercise routing, not solver accuracy; a coarse
		// grid keeps the ~hundreds of locates cheap under -race.
		cfg.Locator = core.NewLocator(core.Config{Search: spectrum.SearchOptions{CoarseStep: geom.Radians(5)}})
	}
	if cfg.Collect == nil {
		cfg.Collect = func(ctx context.Context, _ string, _ client.Config) (core.Observations, error) {
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return f.obs, nil
		}
	}
	srv, err := locsrv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return hostPort(ts), srv, ts
}

// hostPort strips the scheme off an httptest server URL.
func hostPort(ts *httptest.Server) string {
	return strings.TrimPrefix(ts.URL, "http://")
}

// startCoordinator builds a coordinator over the replicas and serves it.
func startCoordinator(t *testing.T, cfg coord.Config) (*coord.Coordinator, *httptest.Server) {
	t.Helper()
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func postLocate(t *testing.T, url, readerAddr string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(locsrv.LocateRequest{ReaderAddr: readerAddr})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/locate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	return resp, buf.Bytes()
}

// shedReplica is a stub that sheds every locate with the PR-4 backpressure
// shape (503 + Retry-After) while staying healthy on /healthz — the
// MaxInFlight=0-slot equivalent: permanently saturated but alive.
func shedReplica(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"at capacity"}`, http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return hostPort(ts)
}

// TestRerouteOn503 is the backpressure-to-resilience acceptance: one of two
// replicas is permanently saturated (every locate sheds 503), yet every
// coordinator locate must succeed by rerouting to the healthy replica, and
// the rollup must report the absorbed sheds.
func TestRerouteOn503(t *testing.T) {
	f := newFleetFixture(t)
	good, _, _ := f.startReplica(t, 0, locsrv.Config{})
	saturated := shedReplica(t)
	c, ts := startCoordinator(t, coord.Config{
		Replicas:       []string{good, saturated},
		RerouteBackoff: time.Millisecond,
	})

	const locates = 40
	for i := 0; i < locates; i++ {
		resp, body := postLocate(t, ts.URL, fmt.Sprintf("10.9.0.%d:5084", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("locate %d = %d (%s), want 200 via reroute", i, resp.StatusCode, body)
		}
		var out locsrv.LocateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("locate %d: bad body: %v", i, err)
		}
		if out.Position == [3]float64{} {
			t.Fatalf("locate %d returned a zero position", i)
		}
	}
	st := c.Stats()
	if st.Routed != locates {
		t.Errorf("routed = %d, want %d", st.Routed, locates)
	}
	// With 40 distinct readers hashed over 2 replicas, some must have been
	// owned by the saturated one and shed-rerouted.
	if st.ShedsAbsorbed == 0 {
		t.Error("no sheds absorbed — saturated replica never owned a key or sheds were not counted")
	}
	if st.Rerouted != st.ShedsAbsorbed {
		t.Errorf("rerouted = %d, sheds = %d: every shed must become a reroute", st.Rerouted, st.ShedsAbsorbed)
	}
	if st.RouteFailures != 0 {
		t.Errorf("route failures = %d, want 0", st.RouteFailures)
	}
}

// TestKillReplicaMidRun is the crash acceptance: with 2 replicas and one
// killed mid-run (listener closed, live connections severed), ≥99% of
// coordinator locates must still succeed via transport-error reroutes, and
// the rollup must report them.
func TestKillReplicaMidRun(t *testing.T) {
	f := newFleetFixture(t)
	survivorAddr, _, _ := f.startReplica(t, 5*time.Millisecond, locsrv.Config{MaxInFlight: -1})
	victimAddr, _, victim := f.startReplica(t, 5*time.Millisecond, locsrv.Config{MaxInFlight: -1})
	c, ts := startCoordinator(t, coord.Config{
		Replicas:       []string{survivorAddr, victimAddr},
		RerouteBackoff: time.Millisecond,
	})

	const locates = 200
	var ok, failed atomic.Uint64
	var wg sync.WaitGroup
	killed := make(chan struct{})
	go func() {
		// Kill the victim while locates are in flight.
		time.Sleep(30 * time.Millisecond)
		victim.CloseClientConnections()
		victim.Close()
		close(killed)
	}()
	sem := make(chan struct{}, 16)
	wg.Add(locates)
	for i := 0; i < locates; i++ {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			body, _ := json.Marshal(locsrv.LocateRequest{ReaderAddr: fmt.Sprintf("10.7.%d.%d:5084", i/256, i%256)})
			resp, err := http.Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(body))
			if err != nil {
				failed.Add(1)
				return
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ok.Add(1)
			} else {
				failed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	<-killed
	if got := ok.Load(); got < locates*99/100 {
		t.Fatalf("%d/%d locates succeeded (%d failed), want ≥99%%", got, locates, failed.Load())
	}
	st := c.Stats()
	if st.TransportReroutes == 0 && st.ShedsAbsorbed == 0 {
		t.Error("kill-mid-run produced no recorded sheds/transport reroutes")
	}
	t.Logf("kill-mid-run: ok=%d failed=%d transportReroutes=%d shedsAbsorbed=%d rerouted=%d",
		ok.Load(), failed.Load(), st.TransportReroutes, st.ShedsAbsorbed, st.Rerouted)
}

// TestDrainZeroDrops pins the drain sequence: a replica that drains mid-run
// finishes its in-flight locates (zero drops) while new work sheds to the
// other replica; the client sees 100% success.
func TestDrainZeroDrops(t *testing.T) {
	f := newFleetFixture(t)
	drainAddr, drainSrv, _ := f.startReplica(t, 20*time.Millisecond, locsrv.Config{MaxInFlight: -1})
	otherAddr, _, _ := f.startReplica(t, 0, locsrv.Config{MaxInFlight: -1})
	c, ts := startCoordinator(t, coord.Config{
		Replicas:       []string{drainAddr, otherAddr},
		RerouteBackoff: time.Millisecond,
	})

	const locates = 80
	var wg sync.WaitGroup
	var failures atomic.Uint64
	wg.Add(locates)
	go func() {
		time.Sleep(10 * time.Millisecond) // land mid-flight
		drainSrv.Drain()
	}()
	sem := make(chan struct{}, 12)
	for i := 0; i < locates; i++ {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			body, _ := json.Marshal(locsrv.LocateRequest{ReaderAddr: fmt.Sprintf("10.8.0.%d:5084", i)})
			resp, err := http.Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(body))
			if err != nil {
				failures.Add(1)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if got := failures.Load(); got != 0 {
		t.Fatalf("%d/%d locates failed across the drain, want 0 drops", got, locates)
	}
	// The drained replica's sheds were absorbed, not surfaced.
	if st := c.Stats(); st.RouteFailures != 0 {
		t.Errorf("route failures = %d, want 0", st.RouteFailures)
	}
	if !drainSrv.Stats().Draining {
		t.Error("replica does not report draining")
	}
}

// flakyHealth is a stub whose /healthz answer is switchable at runtime.
type flakyHealth struct {
	up atomic.Bool
}

func (f *flakyHealth) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && f.up.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHealthTripRestore drives the active checker through a full
// trip/restore cycle and pins the thresholds: TripAfter consecutive failures
// take the replica out, RestoreAfter consecutive successes bring it back.
func TestHealthTripRestore(t *testing.T) {
	var fh flakyHealth
	fh.up.Store(true)
	stub := httptest.NewServer(fh.handler())
	t.Cleanup(stub.Close)

	c, _ := startCoordinator(t, coord.Config{
		Replicas:      []string{hostPort(stub)},
		ProbeInterval: 10 * time.Millisecond,
		TripAfter:     3,
		RestoreAfter:  2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go c.Run(ctx)

	waitFor(t, "initial healthy", func() bool { return c.Stats().HealthyReplicas == 1 })
	fh.up.Store(false)
	waitFor(t, "trip after consecutive failures", func() bool { return c.Stats().HealthyReplicas == 0 })
	fh.up.Store(true)
	waitFor(t, "restore after consecutive successes", func() bool { return c.Stats().HealthyReplicas == 1 })
}

// TestRegisterHeartbeatExpire covers the dynamic membership path: a replica
// registers over the API, serves traffic, then silently dies and is expired
// once its heartbeats stop; the static replica stays.
func TestRegisterHeartbeatExpire(t *testing.T) {
	f := newFleetFixture(t)
	staticAddr, _, _ := f.startReplica(t, 0, locsrv.Config{})
	dynAddr, _, _ := f.startReplica(t, 0, locsrv.Config{})
	c, ts := startCoordinator(t, coord.Config{
		Replicas:      []string{staticAddr},
		ProbeInterval: 10 * time.Millisecond,
		HeartbeatTTL:  60 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go c.Run(ctx)

	body, _ := json.Marshal(coord.RegisterRequest{Addr: dynAddr})
	resp, err := http.Post(ts.URL+"/v1/replicas", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var table coord.ReplicasResponse
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(table.Replicas) != 2 {
		t.Fatalf("table after register = %+v, want 2 replicas", table.Replicas)
	}
	// Heartbeats stop; the dynamic replica must expire, the static stay.
	waitFor(t, "dynamic replica expiry", func() bool { return c.Stats().Replicas == 1 })
	if got := c.Stats().PerReplica[0].Addr; got != staticAddr {
		t.Errorf("surviving replica = %s, want static %s", got, staticAddr)
	}
	// Traffic still flows after the expiry re-homed the keyspace.
	if resp, bodyOut := postLocate(t, ts.URL, "10.3.0.1:5084"); resp.StatusCode != http.StatusOK {
		t.Errorf("post-expiry locate = %d (%s)", resp.StatusCode, bodyOut)
	}
}

// TestBatchSplitAndReassemble pins the batch path: items are split by ring
// owner, forwarded as sub-batches, and reassembled in request order.
func TestBatchSplitAndReassemble(t *testing.T) {
	f := newFleetFixture(t)
	aAddr, aSrv, _ := f.startReplica(t, 0, locsrv.Config{})
	bAddr, bSrv, _ := f.startReplica(t, 0, locsrv.Config{})
	_, ts := startCoordinator(t, coord.Config{
		Replicas:       []string{aAddr, bAddr},
		RerouteBackoff: time.Millisecond,
	})

	const n = 24
	req := locsrv.BatchRequest{}
	for i := 0; i < n; i++ {
		req.Requests = append(req.Requests, locsrv.LocateRequest{ReaderAddr: fmt.Sprintf("10.5.0.%d:5084", i)})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/locate-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	var out locsrv.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != n {
		t.Fatalf("items = %d, want %d", len(out.Items), n)
	}
	for i, item := range out.Items {
		if item.ReaderAddr != req.Requests[i].ReaderAddr {
			t.Fatalf("item %d readerAddr = %s, want %s (order must survive the split)", i, item.ReaderAddr, req.Requests[i].ReaderAddr)
		}
		if item.Error != "" || item.Result == nil {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
	}
	// The split actually fanned out: with 24 readers over 2 replicas both
	// must have seen batch traffic.
	if aSrv.Stats().Batches == 0 || bSrv.Stats().Batches == 0 {
		t.Errorf("batch fan-out lopsided: a=%d b=%d batches", aSrv.Stats().Batches, bSrv.Stats().Batches)
	}
}

// TestClientErrorsRelayedNotRerouted pins the reroute taxonomy's negative
// space: a 4xx (bad request) and a 499 (client gone) are relayed untouched —
// rerouting them would waste replica slots re-answering a request that is
// wrong or abandoned.
func TestClientErrorsRelayedNotRerouted(t *testing.T) {
	for _, status := range []int{http.StatusUnprocessableEntity, locsrv.StatusClientClosedRequest} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
		mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, fmt.Sprintf(`{"error":"status %d"}`, status), status)
		})
		stub := httptest.NewServer(mux)
		c, ts := startCoordinator(t, coord.Config{
			Replicas:       []string{hostPort(stub)},
			RerouteBackoff: time.Millisecond,
		})
		resp, _ := postLocate(t, ts.URL, "10.4.0.1:5084")
		if resp.StatusCode != status {
			t.Errorf("status %d relayed as %d", status, resp.StatusCode)
		}
		if st := c.Stats(); st.Rerouted != 0 {
			t.Errorf("status %d caused %d reroutes, want 0", status, st.Rerouted)
		}
		stub.Close()
		ts.Close()
	}
}

// TestClusterStatsRollup verifies the fleet-wide rollup: per-replica
// locsrv stats are fetched and summed, and coordinator counters ride along.
func TestClusterStatsRollup(t *testing.T) {
	f := newFleetFixture(t)
	aAddr, _, _ := f.startReplica(t, 0, locsrv.Config{})
	bAddr, _, _ := f.startReplica(t, 0, locsrv.Config{})
	c, ts := startCoordinator(t, coord.Config{
		Replicas:       []string{aAddr, bAddr},
		RerouteBackoff: time.Millisecond,
	})
	const locates = 20
	for i := 0; i < locates; i++ {
		if resp, body := postLocate(t, ts.URL, fmt.Sprintf("10.6.0.%d:5084", i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("locate %d = %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/cluster-stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs coord.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Unreachable) != 0 {
		t.Fatalf("unreachable replicas: %v", cs.Unreachable)
	}
	if cs.Cluster.Locates != locates {
		t.Errorf("cluster locates = %d, want %d (sum over replicas)", cs.Cluster.Locates, locates)
	}
	if len(cs.Replicas) != 2 {
		t.Fatalf("replica snapshots = %d, want 2", len(cs.Replicas))
	}
	sum := cs.Replicas[aAddr].Locates + cs.Replicas[bAddr].Locates
	if sum != locates {
		t.Errorf("per-replica locates sum = %d, want %d", sum, locates)
	}
	if cs.Coordinator.Routed != locates {
		t.Errorf("coordinator routed = %d, want %d", cs.Coordinator.Routed, locates)
	}
	_ = c
}

// TestCoordinatorDrain pins the coordinator's own drain: new locates shed
// with 503 + Retry-After and health fails, mirroring replica semantics.
func TestCoordinatorDrain(t *testing.T) {
	f := newFleetFixture(t)
	addr, _, _ := f.startReplica(t, 0, locsrv.Config{})
	c, ts := startCoordinator(t, coord.Config{Replicas: []string{addr}})
	c.Drain()
	resp, _ := postLocate(t, ts.URL, "10.2.0.1:5084")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining locate = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining shed carries no Retry-After")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", hresp.StatusCode)
	}
}

// TestTagFanOut verifies registry mutations reach every replica so any
// route answers locates identically.
func TestTagFanOut(t *testing.T) {
	f := newFleetFixture(t)
	aAddr, _, _ := f.startReplica(t, 0, locsrv.Config{})
	bAddr, _, _ := f.startReplica(t, 0, locsrv.Config{})
	_, ts := startCoordinator(t, coord.Config{Replicas: []string{aAddr, bAddr}})

	entry := registry.Entry{EPC: "E200AABBCCDD00000000FFFF", Center: [3]float64{0.4, 0.4, 0}, RadiusM: 0.2, OmegaRadPerSec: 3.14}
	body, _ := json.Marshal(entry)
	resp, err := http.Post(ts.URL+"/v1/tags", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fan-out add = %d, want 201", resp.StatusCode)
	}
	for _, addr := range []string{aAddr, bAddr} {
		lresp, err := http.Get("http://" + addr + "/v1/tags")
		if err != nil {
			t.Fatal(err)
		}
		var listed []registry.Entry
		if err := json.NewDecoder(lresp.Body).Decode(&listed); err != nil {
			t.Fatal(err)
		}
		lresp.Body.Close()
		found := false
		for _, e := range listed {
			if e.EPC == entry.EPC {
				found = true
			}
		}
		if !found {
			t.Errorf("replica %s missing fanned-out tag", addr)
		}
	}
}
