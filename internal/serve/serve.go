// Package serve is the synthesis-as-a-service layer behind cmd/serve: an
// HTTP/JSON front-end over internal/pipeline that accepts synthesis
// requests for any registered method, executes them on a shared
// byte-budgeted stage cache, and returns the design's Table-I/II summary
// as JSON — optionally streaming per-stage progress events first.
//
// The daemon's value proposition is the cache: an application-specific
// design space is explored as many near-identical requests (same app,
// swept options), and content-addressed stage memoization turns the warm
// ones from seconds into microseconds. Request latency lands in the
// serve.request.ns registry histogram, exported on /metrics.
//
// Endpoints:
//
//	POST /synthesize   {app|netlist|generate, method, options, stream} → summary
//	                   JSON (stream=true: NDJSON progress events, then the summary)
//	GET  /methods      registered methods and the netlist registry's app names
//	GET  /stats.json   cache statistics
//	GET  /metrics      Prometheus text exposition of the registry
//	GET  /healthz      liveness
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"sring/internal/design"
	"sring/internal/loss"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pipeline"
	"sring/internal/wavelength"
)

// Server is the synthesis service: a handler set over one shared cache.
// Serving and pipeline telemetry go to the process registry, which
// /metrics serves. The zero value serves with caching off.
type Server struct {
	// Cache is the shared stage cache; nil serves uncached.
	Cache *pipeline.Cache
	// MaxParallelism caps the per-request Parallelism option; 0 means
	// requests may use all CPUs.
	MaxParallelism int
	// MaxInflight caps concurrently running /synthesize requests. Excess
	// requests are rejected immediately with 429 and a Retry-After header
	// rather than queued — a synthesis can hold a CPU for its full MILP
	// budget, so queueing would let latency grow without bound while the
	// client learns nothing. 0 means twice GOMAXPROCS; negative disables
	// the cap.
	MaxInflight int

	semOnce sync.Once
	sem     chan struct{}
}

// acquire claims an in-flight slot, returning its release func, or ok=false
// when the server is saturated. The semaphore is sized on first use so the
// zero-value Server works.
func (s *Server) acquire() (release func(), ok bool) {
	s.semOnce.Do(func() {
		n := s.MaxInflight
		if n == 0 {
			n = 2 * runtime.GOMAXPROCS(0)
		}
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	})
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		return nil, false
	}
}

// Request is the POST /synthesize body.
type Request struct {
	// App names a builtin application from the netlist registry (exactly
	// one of App, Netlist, Generate).
	App string `json:"app,omitempty"`
	// Netlist is an inline application in the netlist JSON schema.
	Netlist json.RawMessage `json:"netlist,omitempty"`
	// Generate builds a synthetic application on the fly from generator
	// parameters instead of naming or inlining one.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Method is the registered synthesis method to run.
	Method string `json:"method"`
	// Options tune the run; zero values mean the pipeline defaults.
	Options RequestOptions `json:"options"`
	// Stream switches the response to NDJSON: per-stage progress events
	// while the synthesis runs, then a final result event.
	Stream bool `json:"stream,omitempty"`
}

// RequestOptions is the JSON form of pipeline.Options.
type RequestOptions struct {
	Tech            *loss.Tech `json:"tech,omitempty"`
	TreeHeight      int        `json:"tree_height,omitempty"`
	ClusterTrials   int        `json:"cluster_trials,omitempty"`
	MaxChords       int        `json:"max_chords,omitempty"`
	UseMILP         bool       `json:"use_milp,omitempty"`
	Oracle          string     `json:"oracle,omitempty"`
	MILPTimeLimitMS int64      `json:"milp_time_limit_ms,omitempty"`
	Parallelism     int        `json:"parallelism,omitempty"`
	PhysicalPDN     bool       `json:"physical_pdn,omitempty"`
}

// GenerateSpec parameterizes an on-the-fly synthetic application. The
// generators validate their parameters and return errors (never panic), so
// a malformed spec is a clean HTTP 400.
type GenerateSpec struct {
	// Kind selects the generator: "random", "clustered", "scaled-soc",
	// "pmn", or "circulant".
	Kind string `json:"kind"`
	// N is the node count (random, scaled-soc, pmn, circulant).
	N int `json:"n,omitempty"`
	// M is the message count (random).
	M int `json:"m,omitempty"`
	// Seed drives the deterministic pseudo-random generators (random,
	// clustered).
	Seed int64 `json:"seed,omitempty"`
	// Clusters, ClusterSize and InterFlows parameterize "clustered".
	Clusters    int `json:"clusters,omitempty"`
	ClusterSize int `json:"cluster_size,omitempty"`
	InterFlows  int `json:"inter_flows,omitempty"`
	// MemsPerCPU and CPUPairs parameterize "pmn".
	MemsPerCPU int  `json:"mems_per_cpu,omitempty"`
	CPUPairs   bool `json:"cpu_pairs,omitempty"`
	// Gens are the circulant chord generators.
	Gens []int `json:"gens,omitempty"`
}

// maxGeneratedNodes bounds a generated application at twice the largest
// registered one (D512), and maxGeneratedMessages at the complete directed
// graph on that many nodes: without them a few request bytes could make a
// generator allocate gigabytes before synthesis even starts.
const (
	maxGeneratedNodes    = 1024
	maxGeneratedMessages = maxGeneratedNodes * (maxGeneratedNodes - 1)
)

// build runs the selected generator.
func (g *GenerateSpec) build() (*netlist.Application, error) {
	nodes, msgs := float64(g.N), g.M
	if g.Kind == "clustered" {
		nodes, msgs = float64(g.Clusters)*float64(g.ClusterSize), g.InterFlows
	}
	if nodes > maxGeneratedNodes || msgs > maxGeneratedMessages {
		return nil, fmt.Errorf("generated application too large (limit %d nodes, %d messages)", maxGeneratedNodes, maxGeneratedMessages)
	}
	switch g.Kind {
	case "random":
		return netlist.Random(g.N, g.M, g.Seed)
	case "clustered":
		return netlist.Clustered(g.Clusters, g.ClusterSize, g.InterFlows, g.Seed)
	case "scaled-soc":
		return netlist.ScaledSoC(g.N)
	case "pmn":
		return netlist.PMN(g.N, g.MemsPerCPU, g.CPUPairs)
	case "circulant":
		return netlist.Circulant(g.N, g.Gens...)
	default:
		return nil, fmt.Errorf(`unknown generator kind %q (want "random", "clustered", "scaled-soc", "pmn", or "circulant")`, g.Kind)
	}
}

// Response is the synthesis summary: the paper's per-design evaluation
// (Table I columns) plus the synthesis time (Table II) and run flags.
type Response struct {
	App         string          `json:"app"`
	Method      string          `json:"method"`
	Nodes       int             `json:"nodes"`
	Messages    int             `json:"messages"`
	SynthesisNs int64           `json:"synthesis_ns"`
	Cancelled   bool            `json:"cancelled,omitempty"`
	Metrics     *design.Metrics `json:"metrics"`
}

// Event is one NDJSON line of a streamed response.
type Event struct {
	// Event is "stage" (a pipeline span began), "result", or "error".
	Event string `json:"event"`
	// Span is the span name for stage events ("design.layout", …).
	Span string `json:"span,omitempty"`
	// AtNs is the span's start offset from the request start.
	AtNs int64 `json:"at_ns,omitempty"`
	// Result is set on the final "result" event.
	Result *Response `json:"result,omitempty"`
	// Error is set on the final "error" event.
	Error string `json:"error,omitempty"`
}

// statusClientClosedRequest mirrors nginx's non-standard 499: the client
// abandoned the request before synthesis could start.
const statusClientClosedRequest = 499

// progressPollInterval is how often a streaming response samples the
// request's trace for newly started spans.
const progressPollInterval = 10 * time.Millisecond

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/synthesize", s.handleSynthesize)
	mux.HandleFunc("/methods", s.handleMethods)
	mux.HandleFunc("/stats.json", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Serving telemetry in the process registry. A request has no span of its
// own (a streamed request's Recorder belongs to its pipeline run), so these
// metrics are registry-only.
var (
	requestsC = obs.Default().Counter("serve.requests")
	rejectedC = obs.Default().Counter("serve.rejected")
	errorsC   = obs.Default().Counter("serve.request.errors")
	requestH  = obs.Default().Histogram("serve.request.ns")
)

// httpError writes a JSON error body with the given status and counts it.
func (s *Server) httpError(w http.ResponseWriter, status int, err error) {
	errorsC.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// parseRequest validates the request body into an application and pipeline
// options. All failures are client errors (HTTP 400).
func (s *Server) parseRequest(req *Request) (*netlist.Application, pipeline.Options, error) {
	var opt pipeline.Options
	if req.Method == "" {
		return nil, opt, errors.New("missing method")
	}
	known := false
	for _, m := range pipeline.Methods() {
		if m == req.Method {
			known = true
			break
		}
	}
	if !known {
		return nil, opt, fmt.Errorf("unknown method %q (registered: %v)", req.Method, pipeline.Methods())
	}

	sources := 0
	for _, set := range []bool{req.App != "", len(req.Netlist) > 0, req.Generate != nil} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return nil, opt, errors.New(`"app", "netlist" and "generate" are mutually exclusive`)
	}
	var app *netlist.Application
	switch {
	case req.App != "":
		a, err := netlist.ByName(req.App)
		if err != nil {
			return nil, opt, err
		}
		app = a
	case len(req.Netlist) > 0:
		a, err := netlist.Decode(bytes.NewReader(req.Netlist))
		if err != nil {
			return nil, opt, err
		}
		app = a
	case req.Generate != nil:
		a, err := req.Generate.build()
		if err != nil {
			return nil, opt, err
		}
		app = a
	default:
		return nil, opt, errors.New(`need "app" (builtin name), "netlist" (inline application), or "generate" (generator spec)`)
	}

	ro := req.Options
	if ro.Tech != nil {
		// Normalize both validates (the 400 for an implausible Tech) and is
		// what the pipeline will do again internally; Options carries the
		// raw struct.
		if _, err := loss.Normalize(*ro.Tech); err != nil {
			return nil, opt, fmt.Errorf("tech: %w", err)
		}
		opt.Tech = *ro.Tech
	}
	if ro.TreeHeight < 0 || ro.ClusterTrials < 0 || ro.MaxChords < 0 || ro.Parallelism < 0 || ro.MILPTimeLimitMS < 0 {
		return nil, opt, errors.New("options must be non-negative")
	}
	if err := wavelength.CheckOracle(ro.Oracle, ro.UseMILP); err != nil {
		return nil, opt, err
	}
	opt.TreeHeight = ro.TreeHeight
	opt.ClusterTrials = ro.ClusterTrials
	opt.MaxChords = ro.MaxChords
	opt.UseMILP = ro.UseMILP
	opt.Oracle = ro.Oracle
	opt.MILPTimeLimit = time.Duration(ro.MILPTimeLimitMS) * time.Millisecond
	opt.Parallelism = ro.Parallelism
	if s.MaxParallelism > 0 && (opt.Parallelism == 0 || opt.Parallelism > s.MaxParallelism) {
		opt.Parallelism = s.MaxParallelism
	}
	opt.Cache = s.Cache
	return app, opt, nil
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	start := time.Now()
	release, ok := s.acquire()
	if !ok {
		requestsC.Add(1)
		rejectedC.Add(1)
		w.Header().Set("Retry-After", "1")
		s.httpError(w, http.StatusTooManyRequests, errors.New("too many in-flight synthesis requests"))
		return
	}
	defer release()
	requestsC.Add(1)
	defer requestH.RecordSince(start)

	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	app, opt, err := s.parseRequest(&req)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}

	if req.Stream {
		s.streamSynthesize(w, r, app, req.Method, opt)
		return
	}
	d, err := pipeline.Synthesize(r.Context(), app, req.Method, opt)
	if err != nil {
		s.synthesisError(w, r, err)
		return
	}
	resp, err := summarize(d)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// synthesisError maps a pipeline error onto an HTTP status. A request whose
// context fell before synthesis could start is the client's doing (499);
// everything else surviving parseRequest is the server's.
func (s *Server) synthesisError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	if r.Context().Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		status = statusClientClosedRequest
	}
	s.httpError(w, status, err)
}

// streamSynthesize runs the synthesis in the background and streams NDJSON
// progress: one "stage" event per newly started pipeline span (sampled
// every progressPollInterval), then a final "result" or "error" event.
// Mid-flight cancellation degrades like the pipeline does: the final event
// carries the best-feasible design with Cancelled set.
func (s *Server) streamSynthesize(w http.ResponseWriter, r *http.Request, app *netlist.Application, method string, opt pipeline.Options) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	emit := func(e Event) {
		_ = enc.Encode(e)
		if fl != nil {
			fl.Flush()
		}
	}

	// The per-request recorder is the progress source: the pipeline's stage
	// spans (method constructor, design.layout, design.loss,
	// wavelength.assign, design.pdn, pipeline.cached) appear in its
	// snapshots as they start.
	rec := obs.New()
	opt.Recorder = rec

	type outcome struct {
		d   *design.Design
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		d, err := pipeline.Synthesize(r.Context(), app, method, opt)
		done <- outcome{d, err}
	}()

	seen := make(map[string]bool)
	poll := func() {
		var walk func(spans []*obs.SpanSnap)
		walk = func(spans []*obs.SpanSnap) {
			for _, sp := range spans {
				if !seen[sp.Name] {
					seen[sp.Name] = true
					emit(Event{Event: "stage", Span: sp.Name, AtNs: sp.StartNS})
				}
				walk(sp.Children)
			}
		}
		walk(rec.Snapshot().Spans)
	}

	ticker := time.NewTicker(progressPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			poll()
		case out := <-done:
			poll()
			if out.err != nil {
				errorsC.Add(1)
				emit(Event{Event: "error", Error: out.err.Error()})
				return
			}
			resp, err := summarize(out.d)
			if err != nil {
				errorsC.Add(1)
				emit(Event{Event: "error", Error: err.Error()})
				return
			}
			emit(Event{Event: "result", Result: resp})
			return
		}
	}
}

// summarize evaluates a design into its response summary.
func summarize(d *design.Design) (*Response, error) {
	met, err := d.Metrics()
	if err != nil {
		return nil, fmt.Errorf("evaluate design: %w", err)
	}
	return &Response{
		App:         d.App.Name,
		Method:      d.Method,
		Nodes:       d.App.N(),
		Messages:    d.App.M(),
		SynthesisNs: d.SynthesisTime.Nanoseconds(),
		Cancelled:   d.Cancelled,
		Metrics:     met,
	}, nil
}

func (s *Server) handleMethods(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string][]string{
		"methods": pipeline.Methods(),
		"apps":    netlist.Names(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Cache.StatsSnapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
}
