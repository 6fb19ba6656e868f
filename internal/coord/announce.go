package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Announcer keeps one replica registered with a coordinator: it registers on
// start, re-registers on every heartbeat tick (the register endpoint doubles
// as the heartbeat, refreshing the TTL), and deregisters on shutdown so the
// coordinator re-homes the replica's arc immediately instead of waiting out
// the TTL. It lives in coord rather than locsrv so the server package never
// learns about fleet topology.
type Announcer struct {
	// Coordinator is the coordinator's API address (host:port). Required.
	Coordinator string
	// Addr is this replica's advertised API address (host:port) — what the
	// coordinator routes locates to. Required.
	Addr string
	// Interval is the heartbeat period. It must undercut the coordinator's
	// HeartbeatTTL with room for a lost beat or two; zero means 5s (a third
	// of the default 15s TTL).
	Interval time.Duration
	// HTTPClient overrides the heartbeat transport; nil means
	// http.DefaultClient.
	HTTPClient *http.Client
	// Logf, when non-nil, receives announce/heartbeat log lines.
	Logf func(format string, args ...any)
}

// heartbeatTimeout bounds a single register/deregister round trip.
const heartbeatTimeout = 3 * time.Second

func (a *Announcer) interval() time.Duration {
	if a.Interval > 0 {
		return a.Interval
	}
	return 5 * time.Second
}

func (a *Announcer) client() *http.Client {
	if a.HTTPClient != nil {
		return a.HTTPClient
	}
	return http.DefaultClient
}

func (a *Announcer) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

// Run registers and heartbeats until ctx is cancelled, then deregisters on a
// fresh short-lived context (the run context is already dead by then). A
// failed beat is logged and retried next tick — the coordinator tolerates
// missed beats up to its TTL, so transient coordinator outages do not
// unregister a healthy replica.
func (a *Announcer) Run(ctx context.Context) error {
	if a.Coordinator == "" || a.Addr == "" {
		return fmt.Errorf("coord: announcer needs Coordinator and Addr")
	}
	if err := a.beat(ctx); err != nil {
		// First registration failing is worth logging loudly, but keep
		// trying: the coordinator may simply not be up yet.
		a.logf("coord: initial register with %s failed (will retry): %v", a.Coordinator, err)
	} else {
		a.logf("coord: registered %s with coordinator %s", a.Addr, a.Coordinator)
	}
	t := time.NewTicker(a.interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			dctx, cancel := context.WithTimeout(context.Background(), heartbeatTimeout)
			defer cancel()
			if err := a.deregister(dctx); err != nil {
				a.logf("coord: deregister from %s failed: %v", a.Coordinator, err)
			} else {
				a.logf("coord: deregistered %s from coordinator %s", a.Addr, a.Coordinator)
			}
			return ctx.Err()
		case <-t.C:
			if err := a.beat(ctx); err != nil && ctx.Err() == nil {
				a.logf("coord: heartbeat to %s failed: %v", a.Coordinator, err)
			}
		}
	}
}

// beat POSTs one register/heartbeat.
func (a *Announcer) beat(ctx context.Context) error {
	body, err := json.Marshal(RegisterRequest{Addr: a.Addr})
	if err != nil {
		return err
	}
	bctx, cancel := context.WithTimeout(ctx, heartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(bctx, http.MethodPost,
		"http://"+a.Coordinator+"/v1/replicas", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return a.do(req)
}

// deregister removes the replica from the table.
func (a *Announcer) deregister(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		"http://"+a.Coordinator+"/v1/replicas/"+url.PathEscape(a.Addr), nil)
	if err != nil {
		return err
	}
	return a.do(req)
}

func (a *Announcer) do(req *http.Request) error {
	resp, err := a.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()                              //nolint:errcheck // drained below
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // connection reuse
	if resp.StatusCode >= 300 {
		return fmt.Errorf("coordinator %s: status %d", a.Coordinator, resp.StatusCode)
	}
	return nil
}
