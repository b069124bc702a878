package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"sring/internal/design"
	"sring/internal/loss"
	"sring/internal/netlist"
	"sring/internal/pipeline"
	"sring/internal/serve"
)

const (
	// serveCacheBytes caps the stage cache well below the grid's ~2.6 MB
	// working set, so the cache both serves hits and evicts. The cache has
	// one shard: one LRU over the whole budget, so that whether an entry
	// survives depends on how long ago it was used, not on which shard its
	// key hashes to.
	serveCacheBytes = 3 << 19
	// serveSplits is the number of SplitRatioDB values swept: 3.0–3.7 dB.
	serveSplits = 8
)

var serveApps = []string{"MWD", "VOPD", "MPEG", "D26", "8PM-24", "8PM-32", "8PM-44", "D64"}

// serveCombo is one distinct request of the grid.
type serveCombo struct {
	app, method string
	split       int
}

func (c serveCombo) tech() loss.Tech {
	t := loss.Default()
	t.SplitRatioDB = 3.0 + 0.1*float64(c.split)
	return t
}

// serveHarness replays a seeded round of requests against an in-process
// server from two closed-loop clients.
type serveHarness struct {
	srv    *httptest.Server
	apps   map[string]*netlist.Application
	combos []serveCombo
	bodies [][]byte // request body per combo
	// pairs holds, per (app, method) pair, its combos in the pair's seeded
	// split-ratio order; rng draws the pairs' order for each round.
	pairs [][]int
	rng   *splitmix
	// check marks the combos verify synthesises directly: a seeded
	// eighth of the grid, or, in the smoke test, every combo drawn.
	check []bool
	// minimal sums only the drawn combos (the smoke test's few requests).
	minimal bool

	mu   sync.Mutex
	seen map[int]*design.Metrics // first response per combo
}

func setupServe(ctx context.Context, cfg config, _ *goldenFile) (harness, error) {
	s := &serveHarness{apps: map[string]*netlist.Application{}, minimal: cfg.minimal, seen: map[int]*design.Metrics{}}
	names := serveApps
	if cfg.minimal {
		names = serveApps[:2]
	}
	apps, err := appsByName(names...)
	if err != nil {
		return nil, err
	}
	for _, a := range apps {
		s.apps[a.Name] = a
		for _, m := range paperMethods {
			for k := 0; k < serveSplits; k++ {
				c := serveCombo{app: a.Name, method: m, split: k}
				t := c.tech()
				body, err := json.Marshal(serve.Request{App: c.app, Method: c.method, Options: serve.RequestOptions{Tech: &t}})
				if err != nil {
					return nil, err
				}
				s.combos = append(s.combos, c)
				s.bodies = append(s.bodies, body)
			}
		}
	}
	// A pass sweeps every (app, method) pair through its split ratios, the
	// pairs taking turns: request i goes to the (i mod 32)-th pair. The seed
	// orders each pair's ratios once, and the pairs anew for every pass, so
	// that no pair always runs beside the same one. A pair's construct and
	// layout results, which do not depend on the ratio, are reused within
	// 63 requests; its per-ratio stages come round again only after at
	// least 225, more than the cache holds. So each pass hits and evicts the
	// same entries, whatever the seed.
	s.rng = &splitmix{state: cfg.seed}
	s.pairs = make([][]int, len(s.combos)/serveSplits)
	for i := range s.combos {
		s.pairs[i/serveSplits] = append(s.pairs[i/serveSplits], i)
	}
	for _, p := range s.pairs {
		shuffle(p, s.rng)
	}
	order := make([]int, len(s.combos))
	for i := range order {
		order[i] = i
	}
	shuffle(order, s.rng)
	s.check = make([]bool, len(s.combos))
	for i, c := range order {
		s.check[c] = cfg.minimal || i < len(order)/8
	}

	cache, err := pipeline.NewCacheWithConfig(pipeline.CacheConfig{MaxBytes: serveCacheBytes, Shards: 1})
	if err != nil {
		return nil, err
	}
	s.srv = httptest.NewServer((&serve.Server{Cache: cache, MaxParallelism: 1}).Handler())
	// One untimed round fills the cache as every pass leaves it, so the
	// passes measure the steady state; the smoke test sends one request.
	warm := s.round()
	if cfg.minimal {
		warm = warm[:1]
	}
	for _, c := range warm {
		if _, err := s.post(ctx, c); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return s, nil
}

func (s *serveHarness) close() {
	s.srv.Client().CloseIdleConnections()
	s.srv.Close()
}

// post sends one request and decodes the design metrics it returns.
func (s *serveHarness) post(ctx context.Context, combo int) (*design.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.URL+"/synthesize", bytes.NewReader(s.bodies[combo]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.srv.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out serve.Response
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	if out.Metrics == nil {
		return nil, fmt.Errorf("response without metrics")
	}
	return out.Metrics, nil
}

// round draws the pairs' order and returns the requests of one pass: every
// combo once, the pairs taking turns (the smoke test's first 20).
func (s *serveHarness) round() []int {
	shuffle(s.pairs, s.rng)
	var r []int
	for k := 0; k < serveSplits; k++ {
		for _, p := range s.pairs {
			r = append(r, p[k])
		}
	}
	if s.minimal {
		r = r[:20]
	}
	return r
}

// pass sends a round. An untraced pass sends it turn by turn, a turn being
// one request per pair: between turns both clients are idle, so the
// calibration kernel can run. A traced pass runs no kernel and sends the
// round whole, so that no client idles outside a request span.
func (s *serveHarness) pass(ctx context.Context, tm *telemetry, cal *calibration) passResult {
	var pr passResult
	r := s.round()
	turn := len(r)
	if cal != nil {
		turn = len(s.pairs)
	}
	for lo := 0; lo < len(r); lo += turn {
		cal.maybe()
		s.send(ctx, r[lo:min(lo+turn, len(r))], tm, &pr)
	}
	return pr
}

// send posts the combos from two closed-loop clients sharing one cursor and
// adds the outcome to pr. Every response must match the first response for
// its combo.
func (s *serveHarness) send(ctx context.Context, combos []int, tm *telemetry, pr *passResult) {
	var cursor atomic.Int64
	lanes := make([]passResult, 2)
	var wg sync.WaitGroup
	for lane := range lanes {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			lr := &lanes[lane]
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(combos) {
					return
				}
				combo := combos[i]
				lr.attempted++
				sp := tm.recorder().StartSpan("serve.request")
				sp.SetInt("worker", int64(lane)) // the client's Chrome thread
				start := time.Now()
				m, err := s.post(ctx, combo)
				latency := time.Since(start)
				sp.End()
				if err == nil {
					err = s.record(combo, m)
				}
				if err != nil {
					lr.fail(fmt.Errorf("%v: %w", s.combos[combo], err))
					continue
				}
				lr.ops = append(lr.ops, opTiming{timing{start, latency, latency}, combo})
			}
		}(lane)
	}
	wg.Wait()
	for _, lr := range lanes {
		pr.ops = append(pr.ops, lr.ops...)
		pr.attempted += lr.attempted
		pr.failed += lr.failed
		pr.errs = append(pr.errs, lr.errs...)
	}
}

func (s *serveHarness) record(combo int, m *design.Metrics) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	first, ok := s.seen[combo]
	if !ok {
		s.seen[combo] = m
		return nil
	}
	if !reflect.DeepEqual(*first, *m) {
		return fmt.Errorf("response differs from the first one for the same request")
	}
	return nil
}

// verify synthesises a seeded eighth of the grid directly, uncached,
// checks each design and that the served metrics match it, and sums the
// metrics over the whole grid. A combo no request drew is synthesised
// directly too, so the sums do not depend on how far the run got.
func (s *serveHarness) verify(ctx context.Context) (float64, int, error) {
	laser, wl := 0.0, 0
	for i, c := range s.combos {
		m := s.seen[i]
		if m == nil && s.minimal {
			continue
		}
		if m == nil || s.check[i] {
			out, err := synthesize(ctx, s.apps[c.app], c.method, pipeline.Options{Tech: c.tech(), Parallelism: parallelism}, nil)
			if err != nil {
				return 0, 0, fmt.Errorf("%v: %w", c, err)
			}
			if err := out.d.Validate(); err != nil {
				return 0, 0, fmt.Errorf("%v: invalid design: %w", c, err)
			}
			if m != nil && !reflect.DeepEqual(*m, *out.m) {
				return 0, 0, fmt.Errorf("%v: served metrics differ from a direct synthesis", c)
			}
			m = out.m
		}
		laser += m.TotalLaserPowerMW
		wl += m.NumWavelengths
	}
	return laser, wl, nil
}

// serveSplit divides the clients' request time, read from the
// serve.request spans, into the server-side layers the program's registry
// times: the handler, the cache key build and the five pipeline stages.
// What the server did not time is HTTP transport and encoding.
func serveSplit(tm *telemetry, layers map[string]time.Duration, opSelf time.Duration) time.Duration {
	server := time.Duration(tm.histSum["serve.request.ns"])
	inner := time.Duration(tm.histSum["pipeline.cache.keybuild.ns"])
	layers["pipeline.keybuild"] = inner
	for _, st := range []string{"construct", "layout", "loss", "assign", "pdn"} {
		d := time.Duration(tm.histSum["pipeline.stage."+st+".ns"])
		layers["pipeline.stage_"+st] = d
		inner += d
	}
	layers["serve.handler"] = server - inner
	layers["serve.http_overhead"] = opSelf - server
	return 0
}
