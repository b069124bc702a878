// Command serve runs the synthesis daemon: an HTTP/JSON service that
// executes synthesis requests for any registered method on the shared
// staged pipeline, memoizing stage outputs in a byte-budgeted,
// disk-persistable cache so repeated and near-identical requests (option
// sweeps over one application) are served in microseconds.
//
//	serve -addr :8080
//	serve -cache-bytes 268435456 -cache-dir /var/cache/sring
//	serve -max-j 4 -telemetry :9090
//
// Endpoints (see internal/serve):
//
//	POST /synthesize   {"app":"MWD","method":"SRing","options":{...}}
//	                   add "stream":true for NDJSON per-stage progress
//	GET  /methods      registered methods and builtin applications
//	GET  /stats.json   cache statistics
//	GET  /metrics      Prometheus text exposition
//	GET  /healthz      liveness
//
// -cache-dir makes warm state survive restarts: entries are written behind
// the request path and reloaded on boot. -telemetry serves the full
// observability endpoint (pprof, trace) on a second address, as in the
// other commands. On SIGINT/SIGTERM the daemon drains in-flight requests,
// flushes the cache to disk, and prints the cache summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	_ "sring" // register the synthesis methods

	"sring/internal/cli"
	"sring/internal/serve"
)

func main() {
	var cacheFlags cli.CacheFlags
	var (
		addr      = flag.String("addr", ":8080", "address to serve synthesis requests on")
		maxJ      = flag.Int("max-j", 0, "cap per-request Parallelism (0 = allow all CPUs)")
		maxInflt  = flag.Int("max-inflight", 2*runtime.GOMAXPROCS(0), "cap concurrently running synthesis requests; excess get 429 + Retry-After (negative = unlimited)")
		telemetry = flag.String("telemetry", "", "serve live telemetry (Prometheus /metrics, /debug/pprof/) on this second address")
		teleHold  = flag.Duration("telemetry-hold", 0, "with -telemetry, keep the endpoint serving this long after shutdown")
	)
	cacheFlags.Register(flag.CommandLine, 256<<20)
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cache, err := cacheFlags.Open()
	if err != nil {
		fatal(err)
	}
	if st := cache.StatsSnapshot(); st.Entries > 0 {
		fmt.Fprintf(os.Stderr, "serve: reloaded %d cached entries (%d bytes) from %s\n", st.Entries, st.Bytes, cacheFlags.Dir)
	}

	if *telemetry != "" {
		shutdown, err := cli.ServeTelemetry(ctx, os.Stderr, "serve", *telemetry, *teleHold, nil)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}

	srv := &serve.Server{
		Cache:          cache,
		MaxParallelism: *maxJ,
		MaxInflight:    *maxInflt,
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "serve: listening on %s (POST /synthesize)\n", *addr)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "serve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "serve: drain: %v\n", err)
		}
		cancel()
	}
	if err := cache.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: cache close: %v\n", err)
	}
	cli.FprintCacheStats(os.Stderr, "serve", cache.StatsSnapshot())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
