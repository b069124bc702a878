// Package cli holds the small helpers shared by the repository's command
// binaries: wiring the opt-in -telemetry endpoint with its post-run hold
// window. It exists so the three commands that take -telemetry (sring,
// serve, experiments) expose identical observability flags without three
// copies of the start/hold/shutdown choreography.
package cli

import (
	"context"
	"fmt"
	"io"
	"time"

	"sring/internal/obs"
)

// ServeTelemetry starts the live observability endpoint on addr (the
// -telemetry flag value) and returns a shutdown func for the caller to
// defer. The endpoint serves /metrics (Prometheus text), /metrics.json,
// /trace.json, /trace.chrome.json and /debug/pprof/; trace may be nil when
// the command has no Recorder attached.
//
// hold is the -telemetry-hold window: when positive, shutdown keeps the
// endpoint serving for that long (or until ctx is cancelled — ^C) before
// closing, so short-lived runs can still be scraped after their work is
// done. Progress messages go to w (the command's stderr).
func ServeTelemetry(ctx context.Context, w io.Writer, prog, addr string, hold time.Duration, trace func() *obs.Trace) (shutdown func(), err error) {
	ts, err := obs.ServeTelemetry(addr, obs.TelemetryOptions{Trace: trace})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s: telemetry serving on http://%s/ (/metrics, /debug/pprof/, /trace.json)\n", prog, ts.Addr())
	return func() {
		if hold > 0 {
			fmt.Fprintf(w, "%s: holding telemetry endpoint for %s (^C to stop)\n", prog, hold)
			t := time.NewTimer(hold)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
		if err := ts.Close(); err != nil {
			fmt.Fprintf(w, "%s: telemetry shutdown: %v\n", prog, err)
		}
	}, nil
}
