package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/registry"
)

// TestDebugVars pins the observability surface: after publishDebugVars, the
// default mux's /debug/vars carries the scheduler, plan-cache, and server
// counter groups, and the pprof index is mounted.
func TestDebugVars(t *testing.T) {
	srv, err := locsrv.New(locsrv.Config{Registry: registry.New()})
	if err != nil {
		t.Fatal(err)
	}
	publishDebugVars(srv)
	publishDebugVars(srv) // second call must not panic on duplicate Publish

	ts := httptest.NewServer(http.DefaultServeMux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, key := range []string{"tagspin_sched", "tagspin_plancache", "tagspin_server"} {
		raw, ok := vars[key]
		if !ok {
			t.Errorf("/debug/vars missing %q", key)
			continue
		}
		var decoded map[string]any
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Errorf("%q is not a JSON object: %v", key, err)
		}
	}
	var sched map[string]float64
	if err := json.Unmarshal(vars["tagspin_sched"], &sched); err != nil {
		t.Errorf("tagspin_sched: %v", err)
	}
	if len(sched) != 3 || sched["Workers"] < 1 {
		t.Errorf("tagspin_sched = %v, want exactly Workers (>= 1), JobsRun and ChunksRun", sched)
	}
	for _, key := range []string{"JobsRun", "ChunksRun"} {
		if _, ok := sched[key]; !ok {
			t.Errorf("tagspin_sched missing %q: %v", key, sched)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(idx), "goroutine") {
		t.Errorf("/debug/pprof/: status %d, index lists no profiles", resp.StatusCode)
	}
}

// TestRunWithDebugAddr runs the full server with a debug listener enabled
// and checks it still shuts down cleanly.
func TestRunWithDebugAddr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-drain", "5s"})
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run with -debug-addr returned %v, want clean exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down")
	}
}
