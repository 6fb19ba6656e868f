package locsrv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
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
// exactly when the body is longer than MaxBodyBytes, is not one JSON value
// (trailing data included, as json.Unmarshal rules), or names an empty
// readerAddr, an unknown mode or backend, or a negative duration, and 502
// (the failed collect) otherwise. The seed corpus is in
// testdata/fuzz/FuzzLocateBody. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzLocateBody -fuzztime 60s ./internal/locsrv/
func FuzzLocateBody(f *testing.F) {
	h := offlineHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate", bytes.NewReader(body)))
		var req locsrv.LocateRequest
		decodeErr := json.Unmarshal(body, &req)
		bad := len(body) > locsrv.MaxBodyBytes || decodeErr != nil || req.ReaderAddr == "" || req.DurationMillis < 0
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

// FuzzAddTagBody sends arbitrary bodies to POST /v1/tags on a server whose
// registry already holds one tag. The handler must never panic; it answers
// 400 exactly when the body is longer than MaxBodyBytes, is not one JSON
// value, or holds an entry that fails Entry.Validate; 409 when the entry
// names the registered tag's EPC in any hex case; and 201 otherwise, after
// which the registry finds the new tag by its lowercase EPC and the response
// echoes the entry as sent. The seed corpus is in
// testdata/fuzz/FuzzAddTagBody. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzAddTagBody -fuzztime 60s ./internal/locsrv/
func FuzzAddTagBody(f *testing.F) {
	reg := registry.New()
	const held = "00000000000000000000000a"
	if err := reg.Add(registry.Entry{EPC: held, Center: [3]float64{-0.25, 0, 0}, RadiusM: 0.1, OmegaRadPerSec: 3.14}); err != nil {
		f.Fatal(err)
	}
	srv, err := locsrv.New(locsrv.Config{Registry: reg, MaxInFlight: -1})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tags", bytes.NewReader(body)))
		var e registry.Entry
		decodeErr := json.Unmarshal(body, &e)
		want := http.StatusCreated
		switch {
		case len(body) > locsrv.MaxBodyBytes || decodeErr != nil || e.Validate() != nil:
			want = http.StatusBadRequest
		case strings.ToLower(e.EPC) == held:
			want = http.StatusConflict
		}
		if rec.Code != want {
			t.Fatalf("status = %d, want %d (decode error %v, entry %+v): %s", rec.Code, want, decodeErr, e, rec.Body)
		}
		if want != http.StatusCreated {
			if reg.Len() != 1 {
				t.Fatalf("rejected entry changed the registry: %d tags", reg.Len())
			}
			return
		}
		var echoed registry.Entry
		if err := json.Unmarshal(rec.Body.Bytes(), &echoed); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if echoed.EPC != e.EPC {
			t.Errorf("response EPC %q, want %q", echoed.EPC, e.EPC)
		}
		if got, err := reg.Get(strings.ToLower(e.EPC)); err != nil || got.EPC != e.EPC || reg.Len() != 2 {
			t.Errorf("registry after add: %+v, %v, %d tags", got, err, reg.Len())
		}
		if _, err := reg.SpinningTags(); err != nil {
			t.Errorf("SpinningTags after add: %v", err)
		}
		if err := reg.Remove(e.EPC); err != nil {
			t.Fatalf("remove %q: %v", e.EPC, err)
		}
	})
}
