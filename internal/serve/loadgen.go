package serve

// The load-replay engine behind cmd/loadgen: fire a mixed synthesis
// workload at a running serve daemon twice — a cold pass and an identical
// warm pass — at configurable concurrency, and report per-request latency
// percentiles plus the cache hit rate measured from the server's
// /stats.json deltas. The warm:cold p50 ratio is the serving cache's
// headline number.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"sring/internal/netlist"
	"sring/internal/pipeline"
)

// ReplayConfig configures one cold+warm replay.
type ReplayConfig struct {
	// BaseURL is the serve daemon's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client (nil: http.DefaultClient).
	Client *http.Client
	// Concurrency is the number of in-flight requests (0 or 1: sequential).
	Concurrency int
	// Repeat replays each mix element this many times in the warm pass
	// (0: 1) for percentile sample depth. The cold pass always runs each
	// element exactly once: cold work is unique by definition.
	Repeat int
	// Mix is the request mix; names derive as "Serve/<app>/<method>".
	Mix []Request
}

// ReplayStats is one request name's latency distribution within a pass:
// the client-observed request latency (what a user of the service feels,
// HTTP overhead included) and the server-reported synthesis time (what the
// cache actually buys).
type ReplayStats struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P99Ns  int64   `json:"p99_ns"`
	// SynthP50Ns/SynthP99Ns distribute the responses' synthesis_ns.
	SynthP50Ns int64 `json:"synth_p50_ns"`
	SynthP99Ns int64 `json:"synth_p99_ns"`
	// Errors counts this name's non-2xx responses (e.g. 429 load sheds).
	// They are excluded from Count and every latency number above — a
	// rejection returns in microseconds and would drag the percentiles of
	// the requests that actually synthesised.
	Errors int `json:"errors,omitempty"`
}

// ReplayResult is the outcome of a cold+warm replay.
type ReplayResult struct {
	Cold []ReplayStats `json:"cold"`
	Warm []ReplayStats `json:"warm"`
	// ColdWallNs and WarmWallNs are each pass's total wall-clock.
	ColdWallNs int64 `json:"cold_wall_ns"`
	WarmWallNs int64 `json:"warm_wall_ns"`
	// Hits/Misses/HitRate are the server-side cache deltas across both
	// passes (hit rate = hits/(hits+misses); see README "Serving").
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// ColdP50 and WarmP50 return the median synthesis time over every request
// of a pass — the two numbers whose ratio demonstrates the cache. Client
// latency would understate it: localhost HTTP costs a fixed fraction of a
// millisecond that no cache can remove.
func (r *ReplayResult) ColdP50() int64 { return overallP50(r.Cold) }
func (r *ReplayResult) WarmP50() int64 { return overallP50(r.Warm) }

// DefaultMix is the benchmark mix cmd/loadgen replays when not given a
// file: every builtin application under SRing, plus the three baseline
// methods on the smallest application, all at default options.
func DefaultMix() []Request {
	// The paper's methods by fixed name, not pipeline.Methods(): the mix
	// executes on the server, whose registry is authoritative — and the
	// local process may have nothing (a pure client) or extras (test
	// constructors) registered.
	var mix []Request
	for _, app := range netlist.Benchmarks() {
		mix = append(mix, Request{App: app.Name, Method: "SRing"})
	}
	for _, m := range []string{"ORNoC", "CTORing", "XRing"} {
		mix = append(mix, Request{App: "MWD", Method: m})
	}
	return mix
}

// TotalErrors sums the non-2xx response counts across both passes.
func (r *ReplayResult) TotalErrors() int {
	n := 0
	for _, s := range r.Cold {
		n += s.Errors
	}
	for _, s := range r.Warm {
		n += s.Errors
	}
	return n
}

// Replay runs the cold and warm passes and gathers server-side cache
// deltas. A transport failure or malformed response fails the replay — a
// load profile over a misbehaving server is not a measurement — but non-2xx
// responses are counted per name and excluded from the latency numbers: a
// server shedding load under pressure (429) is behaviour to measure, not a
// broken run.
func Replay(ctx context.Context, cfg ReplayConfig) (*ReplayResult, error) {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("loadgen: empty request mix")
	}

	before, err := fetchStats(ctx, client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{}
	for pass := 0; pass < 2; pass++ {
		// The cold pass replays each element exactly once — a repeat within
		// the pass would already hit the cache and pollute the cold
		// percentiles. The warm pass repeats for sample depth.
		repeat := 1
		if pass == 1 {
			repeat = cfg.Repeat
		}
		start := time.Now()
		stats, err := runPass(ctx, client, cfg, repeat)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Nanoseconds()
		if pass == 0 {
			res.Cold, res.ColdWallNs = stats, wall
		} else {
			res.Warm, res.WarmWallNs = stats, wall
		}
	}
	after, err := fetchStats(ctx, client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	res.Hits = after.Hits - before.Hits
	res.Misses = after.Misses - before.Misses
	if total := res.Hits + res.Misses; total > 0 {
		res.HitRate = float64(res.Hits) / float64(total)
	}
	return res, nil
}

// runPass fires the whole mix (times repeat) at the configured concurrency
// and aggregates latencies per request name.
func runPass(ctx context.Context, client *http.Client, cfg ReplayConfig, repeat int) ([]ReplayStats, error) {
	if repeat < 1 {
		repeat = 1
	}
	workers := cfg.Concurrency
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan Request)
	var (
		mu        sync.Mutex
		byName    = map[string][]sample{}
		errByName = map[string]int{}
		firstErr  error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				s, err := doOne(ctx, client, cfg.BaseURL, req)
				name := requestName(req)
				var se *statusError
				mu.Lock()
				switch {
				case errors.As(err, &se):
					errByName[name]++
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				default:
					byName[name] = append(byName[name], s)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < repeat; i++ {
		for _, req := range cfg.Mix {
			jobs <- req
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	nameSet := map[string]bool{}
	for n := range byName {
		nameSet[n] = true
	}
	for n := range errByName {
		nameSet[n] = true
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]ReplayStats, 0, len(names))
	for _, n := range names {
		samples := byName[n]
		lats := make([]int64, len(samples))
		synths := make([]int64, len(samples))
		var sum int64
		for i, s := range samples {
			lats[i], synths[i] = s.lat, s.synth
			sum += s.lat
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		sort.Slice(synths, func(i, j int) bool { return synths[i] < synths[j] })
		st := ReplayStats{
			Name:       n,
			Count:      len(samples),
			P50Ns:      percentile(lats, 50),
			P99Ns:      percentile(lats, 99),
			SynthP50Ns: percentile(synths, 50),
			SynthP99Ns: percentile(synths, 99),
			Errors:     errByName[n],
		}
		if len(samples) > 0 {
			st.MeanNs = float64(sum) / float64(len(samples))
		}
		out = append(out, st)
	}
	return out, nil
}

// statusError is a non-2xx synthesis response: counted per name by the
// replay, not fatal to it.
type statusError struct {
	name   string
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("loadgen: %s: HTTP %d: %s", e.name, e.status, e.body)
}

// sample is one completed request: client-observed latency and
// server-reported synthesis time.
type sample struct{ lat, synth int64 }

// doOne sends one synthesis request and returns its timing sample.
func doOne(ctx context.Context, client *http.Client, baseURL string, req Request) (sample, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return sample{}, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/synthesize", bytes.NewReader(body))
	if err != nil {
		return sample{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		return sample{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	lat := time.Since(start).Nanoseconds()
	if err != nil {
		return sample{}, err
	}
	if resp.StatusCode/100 != 2 {
		return sample{}, &statusError{
			name:   requestName(req),
			status: resp.StatusCode,
			body:   string(bytes.TrimSpace(payload)),
		}
	}
	var out Response
	if err := json.Unmarshal(payload, &out); err != nil {
		return sample{}, fmt.Errorf("loadgen: %s: bad response: %w", requestName(req), err)
	}
	if out.Metrics == nil {
		return sample{}, fmt.Errorf("loadgen: %s: response carries no metrics", requestName(req))
	}
	return sample{lat: lat, synth: out.SynthesisNs}, nil
}

// fetchStats reads the server's cumulative cache statistics.
func fetchStats(ctx context.Context, client *http.Client, baseURL string) (*pipeline.CacheStats, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/stats.json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: stats: HTTP %d", resp.StatusCode)
	}
	var st pipeline.CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("loadgen: stats: %w", err)
	}
	return &st, nil
}

// requestName derives an entry name: "Serve/<app>/<method>".
func requestName(req Request) string {
	app := req.App
	if app == "" {
		app = "inline"
	}
	return fmt.Sprintf("Serve/%s/%s", app, req.Method)
}

// percentile reads the p-th percentile from sorted latencies.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// overallP50 pools the per-name synthesis medians weighted by sample
// count: with equal counts it collapses to the plain median of all
// requests, and it is robust to one name dominating the mix.
func overallP50(stats []ReplayStats) int64 {
	var meds []int64
	for _, s := range stats {
		for i := 0; i < s.Count; i++ {
			meds = append(meds, s.SynthP50Ns)
		}
	}
	if len(meds) == 0 {
		return 0
	}
	sort.Slice(meds, func(i, j int) bool { return meds[i] < meds[j] })
	return meds[len(meds)/2]
}
