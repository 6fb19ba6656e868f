package locsrv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/readersim"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/spectrum"
	"github.com/tagspin/tagspin/internal/testbed"
)

// fixture builds a server whose collector replays a canned simulated
// session, plus the scenario ground truth.
func fixture(t *testing.T) (*httptest.Server, geom.Vec3) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	sc := testbed.DefaultScenario(0, rng)
	target := geom.V3(-1.7, 1.3, 0)
	sc.PlaceReader(target)
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, st := range registered {
		if err := reg.Add(registry.EntryFromSpinningTag(st)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		Collect: func(_ context.Context, addr string, _ client.Config) (core.Observations, error) {
			if addr == "fail" {
				return nil, errors.New("boom")
			}
			return col.Obs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, target
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestNewValidation(t *testing.T) {
	if _, err := locsrv.New(locsrv.Config{}); err == nil {
		t.Error("nil registry accepted")
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := fixture(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestLocate2DEndpoint(t *testing.T) {
	ts, target := fixture(t)
	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	got := geom.V2(out.Position[0], out.Position[1])
	if e := got.DistanceTo(target.XY()); e > 0.15 {
		t.Errorf("2D error %.1f cm", e*100)
	}
	if len(out.Bearings) != 2 {
		t.Errorf("bearings = %d", len(out.Bearings))
	}
	for _, b := range out.Bearings {
		if b.Snapshots == 0 || b.EPC == "" {
			t.Errorf("bearing = %+v", b)
		}
	}
}

func TestLocate3DEndpoint(t *testing.T) {
	ts, _ := fixture(t)
	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084", Mode: "3d"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Mirror == nil {
		t.Fatal("3D response missing mirror candidate")
	}
	if math.Abs(out.Position[2]) != math.Abs((*out.Mirror)[2]) {
		t.Errorf("mirror z %v does not mirror %v", (*out.Mirror)[2], out.Position[2])
	}
}

func TestLocateErrors(t *testing.T) {
	ts, _ := fixture(t)
	// Missing reader address.
	if resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing addr status = %d", resp.StatusCode)
	}
	// Unknown mode.
	if resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "x", Mode: "4d"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode status = %d", resp.StatusCode)
	}
	// Collector failure maps to 502.
	if resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "fail"}); resp.StatusCode != http.StatusBadGateway {
		t.Errorf("collect failure status = %d", resp.StatusCode)
	}
	// Garbage body.
	resp, err := http.Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body status = %d", resp.StatusCode)
	}
}

func TestTagCRUD(t *testing.T) {
	reg := registry.New()
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			return nil, errors.New("unused")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	entry := registry.Entry{
		EPC:            "000000000000000000000001",
		Center:         [3]float64{-0.25, 0, 0},
		RadiusM:        0.10,
		OmegaRadPerSec: math.Pi,
	}
	if resp := postJSON(t, ts.URL+"/v1/tags", entry); resp.StatusCode != http.StatusCreated {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	// Duplicate add conflicts.
	if resp := postJSON(t, ts.URL+"/v1/tags", entry); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate status = %d", resp.StatusCode)
	}
	// List sees it.
	resp, err := http.Get(ts.URL + "/v1/tags")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []registry.Entry
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].EPC != entry.EPC {
		t.Errorf("list = %+v", list)
	}
	// Delete.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tags/"+entry.EPC, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("delete status = %d", dresp.StatusCode)
	}
	if reg.Len() != 0 {
		t.Errorf("registry still has %d entries", reg.Len())
	}
	// Delete again: 404.
	req2, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tags/"+entry.EPC, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Errorf("second delete status = %d", dresp2.StatusCode)
	}
}

// TestFullStack wires the real network client to a real simulated reader:
// HTTP request → locsrv → LLRP/TCP → readersim → channel model → pipeline.
func TestFullStack(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	sc := testbed.DefaultScenario(0, rng)
	target := geom.V3(1.9, 1.1, 0)
	sc.PlaceReader(target)

	reader, err := readersim.New(readersim.Config{World: sc, TimeScale: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go reader.Serve(l) //nolint:errcheck // closed via reader.Close
	defer reader.Close()

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
	srv, err := locsrv.New(locsrv.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{
		ReaderAddr:     l.Addr().String(),
		DurationMillis: 4000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	got := geom.V2(out.Position[0], out.Position[1])
	if e := got.DistanceTo(target.XY()); e > 0.20 {
		t.Errorf("full-stack 2D error %.1f cm", e*100)
	}
}

func TestLocateBatch(t *testing.T) {
	ts, target := fixture(t)
	resp := postJSON(t, ts.URL+"/v1/locate-batch", locsrv.BatchRequest{
		Requests: []locsrv.LocateRequest{
			{ReaderAddr: "reader-a:5084"},
			{ReaderAddr: "fail"},
			{ReaderAddr: "reader-b:5084", Mode: "3d"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 3 {
		t.Fatalf("items = %d", len(out.Items))
	}
	// Item order matches request order.
	if out.Items[0].ReaderAddr != "reader-a:5084" || out.Items[0].Result == nil {
		t.Errorf("item 0 = %+v", out.Items[0])
	}
	got := geom.V2(out.Items[0].Result.Position[0], out.Items[0].Result.Position[1])
	if e := got.DistanceTo(target.XY()); e > 0.15 {
		t.Errorf("batch item 0 error %.1f cm", e*100)
	}
	if out.Items[1].Error == "" || out.Items[1].Result != nil {
		t.Errorf("item 1 should carry the collect failure: %+v", out.Items[1])
	}
	if out.Items[2].Result == nil || out.Items[2].Result.Mirror == nil {
		t.Errorf("item 2 should be a 3D result: %+v", out.Items[2])
	}
}

// TestLocateBatchBounded drives a full-size batch of 64 through a canned
// collector that records its own concurrency, and asserts the semaphore
// keeps the in-flight count at the configured bound. Run under -race it is
// also the data-race test for the batch fan-out.
func TestLocateBatchBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := testbed.DefaultScenario(0, rng)
	sc.PlaceReader(geom.V3(-1.7, 1.3, 0))
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, st := range registered {
		if err := reg.Add(registry.EntryFromSpinningTag(st)); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 4
	var inflight, peak, calls atomic.Int64
	srv, err := locsrv.New(locsrv.Config{
		Registry:         reg,
		BatchConcurrency: bound,
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			calls.Add(1)
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond) // widen the overlap window
			return col.Obs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := locsrv.BatchRequest{Requests: make([]locsrv.LocateRequest, 64)}
	for i := range batch.Requests {
		batch.Requests[i].ReaderAddr = "reader:5084"
	}
	resp := postJSON(t, ts.URL+"/v1/locate-batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 64 {
		t.Fatalf("items = %d", len(out.Items))
	}
	for i, item := range out.Items {
		if item.Error != "" || item.Result == nil {
			t.Fatalf("item %d failed: %+v", i, item)
		}
	}
	if got := calls.Load(); got != 64 {
		t.Errorf("collector called %d times, want 64", got)
	}
	if p := peak.Load(); p > bound {
		t.Errorf("peak concurrency %d exceeds bound %d", p, bound)
	}
}

// TestLocateSingleMatchesBatchErrors pins the de-duplicated locate path:
// the single endpoint's error body and a batch item's error string must be
// the same text for the same invalid request — the drift this guards
// against is exactly what having two copies of the handler caused.
func TestLocateSingleMatchesBatchErrors(t *testing.T) {
	ts, _ := fixture(t)
	for _, req := range []locsrv.LocateRequest{
		{},                            // missing readerAddr
		{ReaderAddr: "x", Mode: "9d"}, // unknown mode
		{ReaderAddr: "fail"},          // collector failure
	} {
		resp := postJSON(t, ts.URL+"/v1/locate", req)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var single struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &single); err != nil {
			t.Fatalf("single response %q: %v", body, err)
		}
		bresp := postJSON(t, ts.URL+"/v1/locate-batch", locsrv.BatchRequest{
			Requests: []locsrv.LocateRequest{req},
		})
		var batch locsrv.BatchResponse
		if err := json.NewDecoder(bresp.Body).Decode(&batch); err != nil {
			t.Fatal(err)
		}
		if single.Error == "" || batch.Items[0].Error != single.Error {
			t.Errorf("request %+v: single error %q != batch error %q",
				req, single.Error, batch.Items[0].Error)
		}
	}
}

func TestLocateBatchValidation(t *testing.T) {
	ts, _ := fixture(t)
	if resp := postJSON(t, ts.URL+"/v1/locate-batch", locsrv.BatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d", resp.StatusCode)
	}
	big := locsrv.BatchRequest{Requests: make([]locsrv.LocateRequest, 65)}
	for i := range big.Requests {
		big.Requests[i].ReaderAddr = "x"
	}
	if resp := postJSON(t, ts.URL+"/v1/locate-batch", big); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d", resp.StatusCode)
	}
	// Per-item validation failures surface inside items, not as HTTP errors.
	resp := postJSON(t, ts.URL+"/v1/locate-batch", locsrv.BatchRequest{
		Requests: []locsrv.LocateRequest{{}, {ReaderAddr: "x", Mode: "9d"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Items[0].Error == "" || out.Items[1].Error == "" {
		t.Errorf("invalid items should carry errors: %+v", out.Items)
	}
}

// TestSearchOptionsPlumbing pins that a caller-supplied Config.Locator's
// search options reach the locate: a server built with a locator carrying
// a non-default search configuration must return exactly what a
// core.Locator carrying the same core.Config returns over the same canned
// observations. A server that ignored the locator would fall back to the
// default coarse grid and (almost surely) different refined bits.
func TestSearchOptionsPlumbing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := testbed.DefaultScenario(0, rng)
	target := geom.V3(-1.7, 1.3, 0)
	sc.PlaceReader(target)
	registered, err := sc.CalibratedSpinningTags(rng)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sc.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, st := range registered {
		if err := reg.Add(registry.EntryFromSpinningTag(st)); err != nil {
			t.Fatal(err)
		}
	}
	search := spectrum.SearchOptions{CoarseStep: geom.Radians(2), Refinements: 2}
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		Locator:  core.NewLocator(core.Config{Search: search}),
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			return col.Obs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	want, err := core.NewLocator(core.Config{Search: search}).Locate2D(registered, col.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Position[0] != want.Position.X || out.Position[1] != want.Position.Y {
		t.Errorf("server position %v != direct locator %v", out.Position, want.Position)
	}
	if e := geom.V2(out.Position[0], out.Position[1]).DistanceTo(target.XY()); e > 0.15 {
		t.Errorf("2D error %.1f cm", e*100)
	}
}
