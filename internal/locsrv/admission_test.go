package locsrv_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/testbed"
)

// admissionFixture builds a 1-slot server whose collector blocks until
// released, so a test can hold the only admission slot occupied at will.
func admissionFixture(t *testing.T) (*httptest.Server, *locsrv.Server, chan struct{}, chan struct{}) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sc := testbed.DefaultScenario(0, rng)
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
	entered := make(chan struct{}, 8) // signals a collect has started
	release := make(chan struct{})    // closed to let collects finish
	srv, err := locsrv.New(locsrv.Config{
		Registry:    reg,
		MaxInFlight: 1,
		Collect: func(ctx context.Context, _ string, _ client.Config) (core.Observations, error) {
			entered <- struct{}{}
			select {
			case <-release:
				return col.Obs, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, entered, release
}

// TestAdmissionControl pins the shed-load path: with MaxInFlight=1 and the
// single slot occupied, further locate and locate-batch requests get an
// immediate 503 with a Retry-After hint (distinct from the 504 deadline
// path), the reject counter increments, and once the slot frees the same
// request succeeds.
func TestAdmissionControl(t *testing.T) {
	ts, srv, entered, release := admissionFixture(t)

	var wg sync.WaitGroup
	wg.Add(1)
	firstStatus := 0
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/locate", "application/json",
			strings.NewReader(`{"readerAddr":"sim"}`))
		if err != nil {
			return
		}
		firstStatus = resp.StatusCode
		resp.Body.Close()
	}()
	<-entered // the slot-holder is inside its collect

	for _, path := range []string{"/v1/locate", "/v1/locate-batch"} {
		var body any = locsrv.LocateRequest{ReaderAddr: "sim"}
		if path == "/v1/locate-batch" {
			body = locsrv.BatchRequest{Requests: []locsrv.LocateRequest{{ReaderAddr: "sim"}}}
		}
		resp := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while saturated: status %d, want 503", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got == "" {
			t.Errorf("%s 503 missing Retry-After header", path)
		}
	}
	if st := srv.Stats(); st.AdmissionRejects != 2 || st.InFlight != 1 || st.MaxInFlight != 1 {
		t.Errorf("Stats after rejects = %+v, want 2 rejects and 1/1 in flight", st)
	}

	close(release)
	wg.Wait()
	if firstStatus != http.StatusOK {
		t.Fatalf("slot-holding request finished with %d, want 200", firstStatus)
	}

	// Slot free again: the previously shed request now succeeds.
	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "sim"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-saturation locate: status %d, want 200", resp.StatusCode)
	}
	st := srv.Stats()
	if st.Locates != 2 || st.AdmissionRejects != 2 {
		t.Errorf("final Stats = %+v, want Locates=2 AdmissionRejects=2", st)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after all requests done, want 0", st.InFlight)
	}
}

// TestAdmissionDisabled pins the negative sentinel: MaxInFlight < 0 turns
// admission control off entirely.
func TestAdmissionDisabled(t *testing.T) {
	reg := registry.New()
	srv, err := locsrv.New(locsrv.Config{
		Registry:    reg,
		MaxInFlight: -1,
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			return nil, errors.New("no reader")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "sim"})
	if resp.StatusCode == http.StatusServiceUnavailable {
		t.Error("admission rejection with MaxInFlight=-1")
	}
	if st := srv.Stats(); st.MaxInFlight != 0 || st.AdmissionRejects != 0 {
		t.Errorf("Stats = %+v, want no admission accounting when disabled", st)
	}
}
