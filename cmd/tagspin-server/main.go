// Command tagspin-server runs the central localization server: it owns the
// spinning-tag registry, collects phase snapshots from readers over the
// LLRP-flavoured protocol, runs the Tagspin pipeline, and serves an
// HTTP/JSON control API:
//
//	GET  /healthz
//	GET  /v1/tags
//	POST /v1/tags            {"epc":..., "centerM":[x,y,z], "radiusM":..., "omegaRadPerSec":...}
//	DELETE /v1/tags/{epc}
//	POST /v1/locate          {"readerAddr":"host:port", "mode":"2d"|"3d"}
//
// The server shuts down gracefully: SIGINT/SIGTERM stops accepting new
// connections, drains in-flight requests for up to the -drain budget, and
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/coord"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/registry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tagspin-server:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tagspin-server", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		regPath        = fs.String("registry", "", "registry JSON to load at startup")
		requestTimeout = fs.Duration("request-timeout", 0, "per-request deadline for locate/locate-batch (0 = no server deadline)")
		drain          = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for draining in-flight requests")
		maxAttempts    = fs.Int("max-attempts", 0, "collect attempts per reader, retrying transient failures (0 = client default of 3)")
		baseBackoff    = fs.Duration("base-backoff", 0, "first collect retry delay, doubled with jitter (0 = client default of 100ms)")
		collectTimeout = fs.Duration("collect-timeout", 0, "wall-clock bound per collection session (0 = client default of 30s)")
		maxInFlight    = fs.Int("max-in-flight", 0, "admitted locate requests before shedding with 503 (0 = 2x GOMAXPROCS, negative = unlimited)")
		debugAddr      = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty = disabled)")
		coordAddr      = fs.String("coord", "", "register with the fleet coordinator at this address (host:port; empty = standalone)")
		advertise      = fs.String("advertise", "", "address to advertise to the coordinator (empty = -addr)")
		heartbeat      = fs.Duration("heartbeat", 0, "coordinator heartbeat period (0 = 5s; must undercut the coordinator's -heartbeat-ttl)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := registry.New()
	if *regPath != "" {
		loaded, err := registry.Load(*regPath)
		if err != nil {
			return err
		}
		reg = loaded
		fmt.Printf("loaded %d spinning tags from %s\n", reg.Len(), *regPath)
	}
	srv, err := locsrv.New(locsrv.Config{
		Registry:       reg,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *requestTimeout,
		Client: client.Config{
			Timeout:     *collectTimeout,
			MaxAttempts: *maxAttempts,
			BaseBackoff: *baseBackoff,
		},
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		publishDebugVars(srv)
		dbg, err := startDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close() //nolint:errcheck // best-effort on exit
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Printf("localization server listening on http://%s\n", *addr)

	// Fleet membership: register with the coordinator and heartbeat until
	// shutdown; the announcer deregisters on its way out so the coordinator
	// re-homes this replica's readers before the drain even starts.
	announced := make(chan struct{})
	if *coordAddr != "" {
		adv := *advertise
		if adv == "" {
			adv = *addr
		}
		ann := &coord.Announcer{
			Coordinator: *coordAddr,
			Addr:        adv,
			Interval:    *heartbeat,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", a...)
			},
		}
		go func() {
			defer close(announced)
			ann.Run(ctx) //nolint:errcheck // returns ctx.Err() on shutdown
		}()
	} else {
		close(announced)
	}

	select {
	case err := <-serveErr:
		// Listen/serve failed before any shutdown was requested.
		return err
	case <-ctx.Done():
	}
	// Drain sequence: deregister (announcer), stop admitting (Drain: new
	// locates shed 503, /healthz fails), then finish in-flight requests.
	fmt.Println("shutdown requested; shedding new requests, draining in-flight")
	<-announced
	srv.Drain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close() //nolint:errcheck // already failing; force-close stragglers
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
