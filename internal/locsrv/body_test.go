package locsrv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/registry"
)

// offlineHandler is a server whose collector fails at once, so every body
// that passes validation answers 502 without touching a network.
func offlineHandler(t testing.TB) http.Handler {
	t.Helper()
	srv, err := locsrv.New(locsrv.Config{
		Registry:    registry.New(),
		MaxInFlight: -1,
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			return nil, errors.New("reader offline")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// TestBodyLimit sends every body-reading endpoint a valid request behind
// 2 MiB of leading whitespace: the server must stop reading at
// MaxBodyBytes and answer 400 instead of decoding the whole body.
func TestBodyLimit(t *testing.T) {
	h := offlineHandler(t)
	pad := bytes.Repeat([]byte(" "), 2<<20)
	for _, tc := range []struct{ path, body string }{
		{"/v1/locate", `{"readerAddr":"127.0.0.1:1"}`},
		{"/v1/locate-batch", `{"requests":[{"readerAddr":"127.0.0.1:1"}]}`},
		{"/v1/tags", `{"epc":"000000000000000000000001","centerM":[-0.25,0,0],"radiusM":0.1,"omegaRadPerSec":3.14}`},
	} {
		body := append(append([]byte(nil), pad...), tc.body...)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %s", tc.path, rec.Code, rec.Body)
		}
	}
}

// FuzzLocateBody sends arbitrary bodies to /v1/locate on a server whose
// collector fails at once. The handler must never panic; it answers 400
// exactly when the body does not decode within MaxBodyBytes or names an
// empty readerAddr, an unknown mode or backend, or a negative duration, and
// 502 (the failed collect) otherwise. The seed corpus is in
// testdata/fuzz/FuzzLocateBody. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzLocateBody -fuzztime 60s ./internal/locsrv/
func FuzzLocateBody(f *testing.F) {
	h := offlineHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate", bytes.NewReader(body)))
		var req locsrv.LocateRequest
		decodeErr := json.NewDecoder(io.LimitReader(bytes.NewReader(body), locsrv.MaxBodyBytes)).Decode(&req)
		bad := decodeErr != nil || req.ReaderAddr == "" || req.DurationMillis < 0
		switch req.Mode {
		case "", "2d", "3d":
		default:
			bad = true
		}
		switch req.Backend {
		case "", "grid", "ml":
		default:
			bad = true
		}
		want := http.StatusBadGateway
		if bad {
			want = http.StatusBadRequest
		}
		if rec.Code != want {
			t.Fatalf("status = %d, want %d (decode error %v, request %+v): %s", rec.Code, want, decodeErr, req, rec.Body)
		}
	})
}
