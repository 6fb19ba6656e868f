package locsrv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/testbed"
)

// collectFixture builds a registry and canned observations for servers whose
// collector is substituted per test.
func collectFixture(t *testing.T) (*registry.Registry, core.Observations) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
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
	return reg, col.Obs
}

// TestDeadlineStatusTaxonomy pins the 499-vs-504 split the coordinator's
// reroute logic keys on: a server deadline (DeadlineExceeded) is 504 and
// reroutable, a vanished client (Canceled) is 499 and must not be rerouted.
// Client-initiated cancellation used to masquerade as 504.
func TestDeadlineStatusTaxonomy(t *testing.T) {
	reg, _ := collectFixture(t)
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"server deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"client gone", fmt.Errorf("client: collect aborted: %w", context.Canceled), locsrv.StatusClientClosedRequest},
		{"plain failure", fmt.Errorf("boom"), http.StatusBadGateway},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := locsrv.New(locsrv.Config{
				Registry: reg,
				Collect: func(context.Context, string, client.Config) (core.Observations, error) {
					return nil, tc.err
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084"})
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestDrainShedsNewFinishesInFlight pins the drain sequence a replica runs
// on SIGTERM: after Drain(), healthz fails (so a coordinator health-trips
// the replica), new locates are shed with 503 + Retry-After, and requests
// already in flight complete successfully — zero drops.
func TestDrainShedsNewFinishesInFlight(t *testing.T) {
	reg, obs := collectFixture(t)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		Collect: func(ctx context.Context, _ string, _ client.Config) (core.Observations, error) {
			once.Do(func() { close(inFlight) })
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return obs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(locsrv.LocateRequest{ReaderAddr: "reader:5084"})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		status int
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		done <- outcome{status: resp.StatusCode}
	}()
	<-inFlight
	srv.Drain()

	// Health fails so the coordinator stops routing here.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", hresp.StatusCode)
	}
	// New work is shed with the backpressure shape clients already know.
	sresp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084"})
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining locate = %d, want 503", sresp.StatusCode)
	}
	if sresp.Header.Get("Retry-After") == "" {
		t.Error("draining shed carries no Retry-After hint")
	}
	// The in-flight request still completes.
	close(release)
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("in-flight locate failed during drain: %v", out.err)
		}
		if out.status != http.StatusOK {
			t.Errorf("in-flight locate = %d, want 200", out.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight locate never completed")
	}
	st := srv.Stats()
	if !st.Draining {
		t.Error("Stats.Draining = false after Drain")
	}
	if st.AdmissionRejects == 0 {
		t.Error("drain shed not counted in AdmissionRejects")
	}
}

// TestStatsEndpoint verifies the coordinator-facing /v1/stats rollup source:
// the counter snapshot is served as JSON on the API listener. Locates that
// do not stream, single or batched, still count their post-collect compute.
func TestStatsEndpoint(t *testing.T) {
	reg, obs := collectFixture(t)
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			return obs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate = %d", resp.StatusCode)
	}
	bresp := postJSON(t, ts.URL+"/v1/locate-batch", locsrv.BatchRequest{Requests: []locsrv.LocateRequest{
		{ReaderAddr: "reader:5084"}, {ReaderAddr: "reader:5084", Mode: "3d"},
	}})
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("locate-batch = %d", bresp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st locsrv.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Locates != 1 || st.Batches != 1 {
		t.Errorf("stats locates = %d, batches = %d, want 1 and 1", st.Locates, st.Batches)
	}
	if st.FinalizeCount != 3 || st.FinalizeNsTotal <= 0 {
		t.Errorf("FinalizeCount = %d, FinalizeNsTotal = %d, want 3 and > 0", st.FinalizeCount, st.FinalizeNsTotal)
	}
	if st.StreamLocates != 0 {
		t.Errorf("StreamLocates = %d, want 0", st.StreamLocates)
	}
	if st.Draining {
		t.Error("fresh server reports draining")
	}
}
