package coord_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tagspin/tagspin/internal/coord"
	"github.com/tagspin/tagspin/internal/locsrv"
)

// echoReplica is a stub replica that answers every locate-batch item with
// its own readerAddr and no result, so a test can follow each item through
// the coordinator's split and reassembly.
func echoReplica(tb testing.TB) string {
	tb.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/locate-batch", func(w http.ResponseWriter, r *http.Request) {
		var req locsrv.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := locsrv.BatchResponse{Items: make([]locsrv.BatchItem, len(req.Requests))}
		for i, item := range req.Requests {
			out.Items[i].ReaderAddr = item.ReaderAddr
		}
		json.NewEncoder(w).Encode(out) //nolint:errcheck // test stub
	})
	ts := httptest.NewServer(mux)
	tb.Cleanup(ts.Close)
	return hostPort(ts)
}

// FuzzCoordLocateBatchBody sends arbitrary bodies to the coordinator's
// /v1/locate-batch over two echoing stub replicas. The coordinator must
// answer 400 exactly when the body is too long, is not one JSON value
// (trailing data included), or holds an empty or over-MaxBatch batch; any other body gets 200 with every item
// back in request order, whichever replica its reader hashed to. The seed
// corpus is in testdata/fuzz/FuzzCoordLocateBatchBody. Run it beyond the
// seeds with
//
//	go test -run '^$' -fuzz FuzzCoordLocateBatchBody -fuzztime 60s ./internal/coord/
func FuzzCoordLocateBatchBody(f *testing.F) {
	c, err := coord.New(coord.Config{Replicas: []string{echoReplica(f), echoReplica(f)}})
	if err != nil {
		f.Fatal(err)
	}
	h := c.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate-batch", bytes.NewReader(body)))
		var req locsrv.BatchRequest
		decodeErr := json.Unmarshal(body, &req)
		if len(body) > locsrv.MaxBodyBytes || decodeErr != nil || len(req.Requests) == 0 || len(req.Requests) > locsrv.MaxBatch {
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
			if item.ReaderAddr != req.Requests[i].ReaderAddr || item.Error != "" {
				t.Errorf("item %d = %+v, want readerAddr %q and no error", i, item, req.Requests[i].ReaderAddr)
			}
		}
	})
}
