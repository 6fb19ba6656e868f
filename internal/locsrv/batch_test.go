package locsrv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/locsrv"
)

// TestLocateBatchOverlapsCollects proves the default config starts every
// batch item at once: each canned collect blocks until all n collects have
// started, so any cap below n (such as a GOMAXPROCS-sized one) stalls the
// batch until the collectors give up.
func TestLocateBatchOverlapsCollects(t *testing.T) {
	reg, obs := collectFixture(t)
	const n = 16
	var started atomic.Int64
	all := make(chan struct{})
	// One deadline for the whole batch, so a capped server fails its
	// remaining waves at once instead of waiting them out one by one.
	wait, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		Collect: func(ctx context.Context, _ string, _ client.Config) (core.Observations, error) {
			if started.Add(1) == n {
				close(all)
			}
			select {
			case <-all:
				return obs, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-wait.Done():
				return nil, fmt.Errorf("only %d of %d collects started", started.Load(), n)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := locsrv.BatchRequest{Requests: make([]locsrv.LocateRequest, n)}
	for i := range batch.Requests {
		batch.Requests[i].ReaderAddr = fmt.Sprintf("reader-%d:5084", i)
	}
	resp := postJSON(t, ts.URL+"/v1/locate-batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out locsrv.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for i, item := range out.Items {
		if item.Error != "" || item.Result == nil {
			t.Errorf("item %d: %+v", i, item)
		}
	}
}

// TestLocateBatchMatchesSingle pins that batch items, which run the batch
// pipeline, answer exactly what a streamed single locate answers: on a
// streaming server, every batch item's JSON result equals the /v1/locate
// body byte for byte. Only the single locates stream.
func TestLocateBatchMatchesSingle(t *testing.T) {
	reg, obs, _ := streamFixture(t)
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		CollectStream: func(_ context.Context, _ string, _ client.Config, start func() client.ReportFunc) (core.Observations, error) {
			if sink := start(); sink != nil {
				streamObs(obs, sink)
			}
			return obs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := []locsrv.LocateRequest{
		{ReaderAddr: "reader:5084", Mode: "2d"},
		{ReaderAddr: "reader:5084", Mode: "3d"},
		{ReaderAddr: "reader:5084", Mode: "2d", Backend: "ml"},
		{ReaderAddr: "reader:5084", Mode: "3d", Backend: "ml"},
	}
	bresp := postJSON(t, ts.URL+"/v1/locate-batch", locsrv.BatchRequest{Requests: reqs})
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", bresp.StatusCode)
	}
	var batch struct {
		Items []struct {
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		} `json:"items"`
	}
	if err := json.NewDecoder(bresp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(reqs) {
		t.Fatalf("items = %d, want %d", len(batch.Items), len(reqs))
	}
	if st := srv.Stats(); st.StreamLocates != 0 {
		t.Errorf("a batch streamed: StreamLocates = %d, want 0", st.StreamLocates)
	}
	for i, req := range reqs {
		resp := postJSON(t, ts.URL+"/v1/locate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: single status = %d", req, resp.StatusCode)
		}
		single, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.StreamLocates != uint64(i+1) {
			t.Errorf("after %d single locates StreamLocates = %d", i+1, st.StreamLocates)
		}
		if got := batch.Items[i]; got.Error != "" || !bytes.Equal(got.Result, bytes.TrimSpace(single)) {
			t.Errorf("%+v: batch item differs from the single locate:\nbatch  %s %s\nsingle %s", req, got.Error, got.Result, single)
		}
	}
}

// FuzzLocateBatchBody sends arbitrary bodies to /v1/locate-batch on a server
// whose collector fails at once. The handler must never panic or answer
// 500; a body that does not decode, an empty batch and one over MaxBatch get
// 400; any other body gets 200 with one item per request, in order, each
// carrying exactly one of result or error. The seed corpus is in
// testdata/fuzz/FuzzLocateBatchBody. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzLocateBatchBody -fuzztime 60s ./internal/locsrv/
func FuzzLocateBatchBody(f *testing.F) {
	h := offlineHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate-batch", bytes.NewReader(body)))
		var req locsrv.BatchRequest
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		if decodeErr != nil || len(req.Requests) == 0 || len(req.Requests) > locsrv.MaxBatch {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (decode error %v, %d requests): %s", rec.Code, decodeErr, len(req.Requests), rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body)
		}
		var out locsrv.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if len(out.Items) != len(req.Requests) {
			t.Fatalf("items = %d, want %d", len(out.Items), len(req.Requests))
		}
		for i, item := range out.Items {
			if item.ReaderAddr != req.Requests[i].ReaderAddr {
				t.Errorf("item %d readerAddr = %q, want %q", i, item.ReaderAddr, req.Requests[i].ReaderAddr)
			}
			if (item.Error == "") == (item.Result == nil) {
				t.Errorf("item %d carries error %q and result %v", i, item.Error, item.Result)
			}
		}
	})
}
