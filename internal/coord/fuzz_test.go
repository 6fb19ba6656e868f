package coord_test

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
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

// mirrorReplica is a stub replica whose POST /v1/locate answers 200 with
// the exact bytes it received, so a test can check that the coordinator
// forwards a locate body unchanged and relays the reply verbatim.
func mirrorReplica(tb testing.TB) string {
	tb.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/locate", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body) //nolint:errcheck // test stub
		w.Write(buf.Bytes()) //nolint:errcheck // test stub
	})
	ts := httptest.NewServer(mux)
	tb.Cleanup(ts.Close)
	return hostPort(ts)
}

// FuzzCoordLocateBody sends arbitrary bodies to the coordinator's
// /v1/locate over two mirroring stub replicas. The coordinator must answer
// 400 exactly when the body is too long, is not one JSON value (trailing
// data included), or lacks a readerAddr; any other body reaches one of the
// replicas byte for byte and its reply comes back verbatim with 200 and
// the replica's address in X-Tagspin-Replica. The seed corpus is in
// testdata/fuzz/FuzzCoordLocateBody. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzCoordLocateBody -fuzztime 60s ./internal/coord/
func FuzzCoordLocateBody(f *testing.F) {
	replicas := []string{mirrorReplica(f), mirrorReplica(f)}
	c, err := coord.New(coord.Config{Replicas: replicas})
	if err != nil {
		f.Fatal(err)
	}
	h := c.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate", bytes.NewReader(body)))
		var req locsrv.LocateRequest
		decodeErr := json.Unmarshal(body, &req)
		if len(body) > locsrv.MaxBodyBytes || decodeErr != nil || req.ReaderAddr == "" {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (decode error %v, readerAddr %q): %s", rec.Code, decodeErr, req.ReaderAddr, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), body) {
			t.Fatalf("relayed body %q, want the request body %q", rec.Body, body)
		}
		if via := rec.Header().Get("X-Tagspin-Replica"); !slices.Contains(replicas, via) {
			t.Fatalf("X-Tagspin-Replica = %q, want one of %v", via, replicas)
		}
	})
}

// FuzzRegisterReplicaBody sends arbitrary bodies to the coordinator's
// POST /v1/replicas. It must answer 400 exactly when the body is too long,
// is not one JSON value, or lacks an addr or holds one that is not a
// routable host:port (one whose "http://"+addr URL has exactly addr as its
// host); any other body registers that address, which the reply's replica
// table then lists, and the address must come off the table again through
// DELETE /v1/replicas/{addr} with the escaping the replica announcer uses.
// Before that check, "." and ".." registered and could never be removed
// (the router answers their DELETE with a 301 to a cleaned path). The seed corpus is in
// testdata/fuzz/FuzzRegisterReplicaBody. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzRegisterReplicaBody -fuzztime 60s ./internal/coord/
func FuzzRegisterReplicaBody(f *testing.F) {
	c, err := coord.New(coord.Config{})
	if err != nil {
		f.Fatal(err)
	}
	h := c.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/replicas", bytes.NewReader(body)))
		var req coord.RegisterRequest
		decodeErr := json.Unmarshal(body, &req)
		if len(body) > locsrv.MaxBodyBytes || decodeErr != nil || !routableAddr(req.Addr) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (decode error %v, addr %q): %s", rec.Code, decodeErr, req.Addr, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body)
		}
		var table coord.ReplicasResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &table); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if len(table.Replicas) != 1 || table.Replicas[0].Addr != req.Addr {
			t.Fatalf("replica table %+v, want just %q", table.Replicas, req.Addr)
		}
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/replicas/"+url.PathEscape(req.Addr), nil))
		if del.Code != http.StatusOK {
			t.Fatalf("deregister %q: status = %d, want 200: %s", req.Addr, del.Code, del.Body)
		}
	})
}

// routableAddr is the oracle of FuzzRegisterReplicaBody: a host:port with
// a port, which "http://"+addr parses back to as its host.
func routableAddr(addr string) bool {
	_, port, err := net.SplitHostPort(addr)
	if err != nil || port == "" {
		return false
	}
	u, err := url.Parse("http://" + addr)
	return err == nil && u.Host == addr
}
