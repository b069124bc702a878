package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// TelemetryServer is the opt-in live observability endpoint started by the
// -telemetry flag: Prometheus text exposition at /metrics, the standard
// net/http/pprof handlers at /debug/pprof/, and the current trace snapshot
// (when a Recorder is attached) at /trace.json, with a Chrome trace-event
// rendering at /trace.chrome.json. It serves aggregate state only and never
// touches synthesis results, so leaving it running has no effect on design
// content or determinism.
type TelemetryServer struct {
	ln    net.Listener
	srv   *http.Server
	errCh chan error
}

// TelemetryOptions configures ServeTelemetry. /metrics always serves the
// process registry (Default).
type TelemetryOptions struct {
	// Trace, when non-nil, provides the snapshot served at /trace.json.
	Trace func() *Trace
}

// ServeTelemetry starts an HTTP listener on addr (host:port; ":0" picks a
// free port — query it with Addr) and serves it in a background goroutine
// until Close.
func ServeTelemetry(addr string, opt TelemetryOptions) (*TelemetryServer, error) {
	reg := defaultRegistry
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listen %s: %w", addr, err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tr := traceOrEmpty(opt.Trace)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tr)
	})
	mux.HandleFunc("/trace.chrome.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tr := traceOrEmpty(opt.Trace)
		_ = tr.WriteChromeTrace(w)
	})
	// net/http/pprof registers on http.DefaultServeMux; mount the same
	// handlers here so the default mux (and anything else on it) stays out
	// of this listener.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "sring telemetry\n\n/metrics\n/metrics.json\n/trace.json\n/trace.chrome.json\n/debug/pprof/\n")
	})

	ts := &TelemetryServer{
		ln:    ln,
		srv:   &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		errCh: make(chan error, 1),
	}
	go func() {
		err := ts.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		ts.errCh <- err
	}()
	return ts, nil
}

func traceOrEmpty(f func() *Trace) *Trace {
	if f != nil {
		if tr := f(); tr != nil {
			return tr
		}
	}
	return &Trace{}
}

// Addr returns the listener's address ("127.0.0.1:43211"), useful when the
// server was started on ":0".
func (ts *TelemetryServer) Addr() string {
	if ts == nil {
		return ""
	}
	return ts.ln.Addr().String()
}

// Close shuts the server down, waiting briefly for in-flight requests. Safe
// on nil.
func (ts *TelemetryServer) Close() error {
	if ts == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		ts.srv.Close()
		return err
	}
	return <-ts.errCh
}
