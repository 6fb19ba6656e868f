package main

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux
	"sync"
	"sync/atomic"
	"time"

	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/sched"
	"github.com/tagspin/tagspin/internal/spectrum"
)

// The -debug-addr listener serves http.DefaultServeMux, which carries the
// net/http/pprof profiles (imported above) and expvar's /debug/vars
// (registered by the expvar import). The tagspin-specific vars below add
// the dense-scan scheduler counters (width, jobs and chunks run), the trig
// plan-cache hit/miss counters, the spectrum coarse-search routing tally
// (which accelerator served each scan), and the server's request/admission
// counters. The debug listener is separate from the API listener on
// purpose: profiles and metrics never compete with (or get exposed to)
// localization traffic.

var (
	debugOnce sync.Once
	debugSrv  atomic.Pointer[locsrv.Server]
)

// publishDebugVars registers the tagspin expvars once per process and
// points them at srv. Re-pointing on subsequent calls (tests run the
// server repeatedly in one process) keeps expvar.Publish from panicking on
// duplicate names.
func publishDebugVars(srv *locsrv.Server) {
	debugSrv.Store(srv)
	debugOnce.Do(func() {
		expvar.Publish("tagspin_sched", expvar.Func(func() any {
			return sched.PoolStats()
		}))
		expvar.Publish("tagspin_plancache", expvar.Func(func() any {
			return spectrum.PlanCacheSnapshot()
		}))
		expvar.Publish("tagspin_spectrum_search", expvar.Func(func() any {
			return spectrum.SearchStatsSnapshot()
		}))
		expvar.Publish("tagspin_server", expvar.Func(func() any {
			if s := debugSrv.Load(); s != nil {
				return s.Stats()
			}
			return locsrv.Stats{}
		}))
	})
}

// startDebugServer begins serving pprof + expvar on addr. The returned
// server is already accepting; the caller owns shutting it down.
func startDebugServer(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	dbg := &http.Server{
		Handler:           http.DefaultServeMux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go dbg.Serve(ln) //nolint:errcheck // closed via dbg.Close on shutdown
	fmt.Printf("debug server (pprof, expvar) listening on http://%s/debug/\n", ln.Addr())
	return dbg, nil
}
