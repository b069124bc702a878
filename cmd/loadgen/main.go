// Command loadgen replays a mixed synthesis workload against a running
// serve daemon and prints its serving profile:
//
//	loadgen -url http://127.0.0.1:8080
//	loadgen -url ... -j 8 -repeat 5
//	loadgen -url ... -mix mix.json
//
// The workload runs twice — a cold pass and an identical warm pass — at
// the configured concurrency. Per request name ("Serve/<app>/<method>")
// it prints the warm pass's mean and p50/p99 latency, then the cold/warm
// wall-clocks, the cold:warm synthesis p50 ratio (the serving cache's
// headline number) and the server-side cache hits and misses across both
// passes. Non-2xx responses are counted per name and reported on a
// "Replay/errors" line.
//
// -mix replays a custom workload: a JSON array of serve request objects
// ({"app":...,"method":...,"options":{...}}), instead of the default mix
// (every builtin application under SRing plus the three baseline methods
// on MWD).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sring/internal/serve"
)

func main() {
	var (
		url    = flag.String("url", "", "base URL of the serve daemon (required), e.g. http://127.0.0.1:8080")
		jobs   = flag.Int("j", 4, "concurrent in-flight requests")
		repeat = flag.Int("repeat", 3, "times each mix element is replayed per pass")
		mixP   = flag.String("mix", "", "JSON file with the request mix (default: builtin benchmark mix)")
	)
	flag.Parse()
	if *url == "" {
		fatal(fmt.Errorf("-url is required"))
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	mix := serve.DefaultMix()
	if *mixP != "" {
		data, err := os.ReadFile(*mixP)
		if err != nil {
			fatal(err)
		}
		mix = nil
		if err := json.Unmarshal(data, &mix); err != nil {
			fatal(fmt.Errorf("%s: %w", *mixP, err))
		}
	}

	res, err := serve.Replay(ctx, serve.ReplayConfig{
		BaseURL:     *url,
		Concurrency: *jobs,
		Repeat:      *repeat,
		Mix:         mix,
	})
	if err != nil {
		fatal(err)
	}

	for _, s := range res.Warm {
		line := fmt.Sprintf("%-32s %6d reqs %12.0f ns/op   p50 %-10s p99 %-10s synth p50 %s",
			s.Name, s.Count, s.MeanNs,
			time.Duration(s.P50Ns).Round(time.Microsecond),
			time.Duration(s.P99Ns).Round(time.Microsecond),
			time.Duration(s.SynthP50Ns).Round(time.Microsecond))
		if s.Errors > 0 {
			line += fmt.Sprintf("   %d non-2xx", s.Errors)
		}
		fmt.Println(line)
	}
	if n := res.TotalErrors(); n > 0 {
		fmt.Printf("%-32s %d non-2xx responses across both passes, excluded from all latency numbers\n",
			"Replay/errors", n)
	}
	coldP50, warmP50 := res.ColdP50(), res.WarmP50()
	ratio := 0.0
	if warmP50 > 0 {
		ratio = float64(coldP50) / float64(warmP50)
	}
	fmt.Printf("%-32s cold %-12s warm %-12s synth p50 cold/warm %.0fx   hit rate %.1f%% (%d hits / %d misses)\n",
		"Replay/overall",
		time.Duration(res.ColdWallNs).Round(time.Millisecond),
		time.Duration(res.WarmWallNs).Round(time.Millisecond),
		ratio, 100*res.HitRate, res.Hits, res.Misses)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
