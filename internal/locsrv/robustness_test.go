package locsrv_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/readersim"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/testbed"
)

func TestNegativeDurationRejected(t *testing.T) {
	ts, _ := fixture(t)
	req := locsrv.LocateRequest{ReaderAddr: "reader:5084", DurationMillis: -5}
	if resp := postJSON(t, ts.URL+"/v1/locate", req); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative duration status = %d, want 400", resp.StatusCode)
	}
	// Batch items share locateOne, so the same request must fail inside the
	// item rather than run with the config default.
	bresp := postJSON(t, ts.URL+"/v1/locate-batch", locsrv.BatchRequest{
		Requests: []locsrv.LocateRequest{req},
	})
	var out locsrv.BatchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Items[0].Error == "" || !strings.Contains(out.Items[0].Error, "durationMillis") {
		t.Errorf("batch item = %+v, want durationMillis error", out.Items[0])
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	reg := registry.New()
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			panic("collector exploded")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "x"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("panic response is not the JSON error envelope: %v", err)
	}
	if !strings.Contains(body.Error, "internal error") {
		t.Errorf("error body = %q", body.Error)
	}
	// The server must still be alive for the next request.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic = %d", hresp.StatusCode)
	}
}

// startSimReader brings up a fault-configurable simulated reader for the
// scenario and returns its address.
func startSimReader(t *testing.T, sc *testbed.Scenario, faults readersim.Faults) string {
	t.Helper()
	r, err := readersim.New(readersim.Config{World: sc, TimeScale: 400, Seed: 3, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(l)                   //nolint:errcheck // closed via r.Close
	t.Cleanup(func() { r.Close() }) //nolint:errcheck // best-effort
	return l.Addr().String()
}

// TestRequestTimeoutCancelsStalledBatchItem is the acceptance scenario: a
// batch where one real reader stalls before ROSpecDone and one behaves. The
// server's RequestTimeout must fail the stalled item in ≪ the 30 s client
// wall-clock budget while the healthy item still localizes.
func TestRequestTimeoutCancelsStalledBatchItem(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sc := testbed.DefaultScenario(0, rng)
	target := geom.V3(1.6, 1.2, 0)
	sc.PlaceReader(target)
	calibrated, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, st := range calibrated {
		if err := reg.Add(registry.EntryFromSpinningTag(st)); err != nil {
			t.Fatal(err)
		}
	}
	goodAddr := startSimReader(t, sc, readersim.Faults{})
	stallAddr := startSimReader(t, sc, readersim.Faults{StallBeforeDone: true})

	srv, err := locsrv.New(locsrv.Config{
		Registry:       reg,
		RequestTimeout: 3 * time.Second,
		// The default BatchConcurrency runs both items at once even on a
		// single-core box; a cap of one would let the stalled item pin the
		// only slot until the deadline.
		// Real network client (no canned collector): the stall is a live
		// TCP connection that never completes, the timeout must cut it.
		Client: client.Config{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/locate-batch", locsrv.BatchRequest{
		Requests: []locsrv.LocateRequest{
			{ReaderAddr: goodAddr, DurationMillis: 4000},
			{ReaderAddr: stallAddr, DurationMillis: 4000},
		},
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Items[0].Error != "" || out.Items[0].Result == nil {
		t.Errorf("healthy item failed: %+v", out.Items[0])
	} else {
		got := geom.V2(out.Items[0].Result.Position[0], out.Items[0].Result.Position[1])
		if e := got.DistanceTo(target.XY()); e > 0.20 {
			t.Errorf("healthy item error %.1f cm", e*100)
		}
	}
	if out.Items[1].Error == "" || out.Items[1].Result != nil {
		t.Errorf("stalled item should fail: %+v", out.Items[1])
	}
	// ≪ the 30 s client timeout: the request deadline (3 s) governs.
	if elapsed > 15*time.Second {
		t.Errorf("batch took %v; stalled reader pinned it past the request deadline", elapsed)
	}
}

// TestClientDisconnectCancelsCollect verifies the tentpole wiring: killing
// the HTTP request propagates ctx cancellation into the collector.
func TestClientDisconnectCancelsCollect(t *testing.T) {
	reg := registry.New()
	started := make(chan struct{})
	canceled := make(chan struct{})
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		Collect: func(ctx context.Context, _ string, _ client.Config) (core.Observations, error) {
			close(started)
			select {
			case <-ctx.Done():
				close(canceled)
				return nil, ctx.Err()
			case <-time.After(20 * time.Second):
				return nil, errors.New("request context never canceled")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/locate",
		strings.NewReader(`{"readerAddr":"reader:5084"}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("collect never started")
	}
	cancel() // client walks away mid-collect
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("collect did not observe the disconnect")
	}
	<-errc // the aborted request errors; only the cancellation mattered
}
