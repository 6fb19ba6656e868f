package locsrv_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/testbed"
)

// streamFixture builds the canned scenario the streaming server tests share.
func streamFixture(t *testing.T) (*registry.Registry, core.Observations, geom.Vec3) {
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
	return reg, col.Obs, target
}

// streamObs feeds obs to sink in global time order, as a live session would.
func streamObs(obs core.Observations, sink client.ReportFunc) {
	type item struct {
		epc  tags.EPC
		snap phase.Snapshot
	}
	var items []item
	for epc, snaps := range obs {
		for _, s := range snaps {
			items = append(items, item{epc, s})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].snap.Time < items[j].snap.Time })
	for _, it := range items {
		sink(it.epc, it.snap)
	}
}

func locateBody(t *testing.T, resp *http.Response) locsrv.LocateResponse {
	t.Helper()
	var out locsrv.LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLocateStreamingEndpoint runs a locate through a canned streaming
// collector and checks the response matches the batch pipeline bit for bit,
// with the streaming counters accounting for the session. Every tag of the
// full-length session streams.
func TestLocateStreamingEndpoint(t *testing.T) {
	reg, obs, _ := streamFixture(t)
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		CollectStream: func(_ context.Context, _ string, _ client.Config, start func() client.ReportFunc) (core.Observations, error) {
			streamObs(obs, start())
			return obs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := locsrv.New(locsrv.Config{
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
	tsBatch := httptest.NewServer(batch.Handler())
	defer tsBatch.Close()

	for _, mode := range []string{"2d", "3d"} {
		resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084", Mode: mode})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", mode, resp.StatusCode)
		}
		respBatch := postJSON(t, tsBatch.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084", Mode: mode})
		if respBatch.StatusCode != http.StatusOK {
			t.Fatalf("%s batch status = %d", mode, respBatch.StatusCode)
		}
		got, want := locateBody(t, resp), locateBody(t, respBatch)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s streamed response differs from batch:\n got %+v\nwant %+v", mode, got, want)
		}
	}

	st := srv.Stats()
	if st.StreamLocates != 2 {
		t.Errorf("StreamLocates = %d, want 2", st.StreamLocates)
	}
	if st.StreamFallbackTags != 0 {
		t.Errorf("StreamFallbackTags = %d, want 0", st.StreamFallbackTags)
	}
	if st.SnapshotsStreamed == 0 {
		t.Error("SnapshotsStreamed = 0")
	}
	if st.FinalizeCount != 2 || st.FinalizeNsTotal <= 0 {
		t.Errorf("FinalizeCount = %d, FinalizeNsTotal = %d", st.FinalizeCount, st.FinalizeNsTotal)
	}
	if bs := batch.Stats(); bs.StreamLocates != 0 {
		t.Errorf("batch server StreamLocates = %d, want 0", bs.StreamLocates)
	}
}

// TestLocateStreamingRetryResets simulates a transient collection failure:
// the collector streams a disordered partial prefix, fails, and retries with
// a fresh sink. The retry's reset must discard the poisoned prefix so every
// tag still streams cleanly: a tag left poisoned would fall back to
// re-preparing its snapshots and show up in StreamFallbackTags.
func TestLocateStreamingRetryResets(t *testing.T) {
	reg, obs, target := streamFixture(t)
	attempts := 0
	srv, err := locsrv.New(locsrv.Config{
		Registry: reg,
		CollectStream: func(_ context.Context, _ string, _ client.Config, start func() client.ReportFunc) (core.Observations, error) {
			// Attempt 1: disordered partial prefix, then failure.
			sink := start()
			attempts++
			for epc, snaps := range obs {
				for i := len(snaps) - 1; i >= 0 && i > len(snaps)-5; i-- {
					sink(epc, snaps[i])
				}
			}
			// Attempt 2: fresh sink, clean session.
			sink = start()
			attempts++
			streamObs(obs, sink)
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
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := locateBody(t, resp)
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if st := srv.Stats(); st.StreamLocates != 1 || st.StreamFallbackTags != 0 {
		t.Errorf("StreamLocates = %d, StreamFallbackTags = %d, want 1 and 0",
			st.StreamLocates, st.StreamFallbackTags)
	}
	if e := geom.V2(out.Position[0], out.Position[1]).DistanceTo(target.XY()); e > 0.15 {
		t.Errorf("2D error %.1f cm", e*100)
	}
}

// TestLocateStreamingTimeout stalls the streaming collector past
// RequestTimeout and expects the 504 deadline mapping on the stream path.
func TestLocateStreamingTimeout(t *testing.T) {
	reg, _, _ := streamFixture(t)
	srv, err := locsrv.New(locsrv.Config{
		Registry:       reg,
		RequestTimeout: 50 * time.Millisecond,
		CollectStream: func(ctx context.Context, _ string, _ client.Config, start func() client.ReportFunc) (core.Observations, error) {
			start()
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
}

// TestDisableStreaming checks the escape hatch: with DisableStreaming set,
// the canned streaming collector is never consulted and the plain collector
// serves the batch pipeline.
func TestDisableStreaming(t *testing.T) {
	reg, obs, _ := streamFixture(t)
	srv, err := locsrv.New(locsrv.Config{
		Registry:         reg,
		DisableStreaming: true,
		Collect: func(context.Context, string, client.Config) (core.Observations, error) {
			return obs, nil
		},
		CollectStream: func(context.Context, string, client.Config, func() client.ReportFunc) (core.Observations, error) {
			return nil, errors.New("streaming collector used despite DisableStreaming")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/locate", locsrv.LocateRequest{ReaderAddr: "reader:5084"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st := srv.Stats(); st.StreamLocates != 0 {
		t.Errorf("StreamLocates = %d, want 0", st.StreamLocates)
	}
}
