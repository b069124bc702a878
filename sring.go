// Package sring is a synthesis library for application-specific
// wavelength-routed optical network-on-chip (WRONoC) ring routers. It
// reproduces "SRing: A Sub-Ring Construction Method for Application-
// Specific Wavelength-Routed Optical NoCs" (Zheng et al., DATE 2025).
//
// Given an application — nodes with physical placements plus the directed
// messages they must exchange — the library synthesises a ring router with
// one of four methods and evaluates its optical power budget:
//
//   - SRing (the paper's contribution): nodes are clustered by
//     communication requirement and physical location, each cluster gets a
//     short intra-cluster sub-ring waveguide and at most one extra sub-ring
//     carries the inter-cluster traffic; wavelengths are assigned by a MILP
//     (with a built-in branch-and-bound solver) that jointly minimises
//     wavelength usage, worst-case insertion loss, and PDN splitter usage.
//   - ORNoC, CTORing, XRing: the three state-of-the-art baselines the
//     paper compares against, sharing the same layout, loss and PDN
//     substrate.
//
// Every method runs on one staged engine (internal/pipeline): a
// method-specific construction stage followed by shared layout, loss
// pricing, wavelength assignment and PDN stages. The engine is
// context-aware — SynthesizeContext honours cancellation, degrading
// gracefully to the best feasible design (Design.Cancelled) — and
// memoizing: an Options.Cache reuses stage outputs across calls that share
// their upstream inputs.
//
// Quick start:
//
//	app := sring.MWD()
//	d, err := sring.Synthesize(app, sring.MethodSRing, sring.Options{UseMILP: true})
//	if err != nil { ... }
//	m, err := d.Metrics()
//	fmt.Printf("laser power: %.3f mW on %d wavelengths\n",
//	    m.TotalLaserPowerMW, m.NumWavelengths)
//
// With a deadline and a cache:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	opt := sring.Options{UseMILP: true, Cache: sring.NewCache()}
//	d, err := sring.SynthesizeContext(ctx, app, sring.MethodSRing, opt)
//	// On timeout d is still returned, flagged d.Cancelled, carrying the
//	// solver's best incumbent instead of an error.
package sring

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"sring/internal/design"
	"sring/internal/floorplan"
	"sring/internal/loss"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/par"
	"sring/internal/pipeline"

	// Each method package registers its constructor with the pipeline
	// engine from init(); importing them is what makes the four methods
	// available.
	_ "sring/internal/cluster"
	_ "sring/internal/ctoring"
	_ "sring/internal/ornoc"
	_ "sring/internal/xring"
)

// Re-exported model types. Aliases keep one set of definitions across the
// internal packages and the public API.
type (
	// Application is a synthesis input: nodes with placements + messages.
	Application = netlist.Application
	// Node is a network endpoint.
	Node = netlist.Node
	// NodeID identifies a node.
	NodeID = netlist.NodeID
	// Message is a directed communication requirement.
	Message = netlist.Message
	// Design is a fully synthesised router.
	Design = design.Design
	// Metrics are the per-design evaluation results (Table I columns,
	// Fig. 7 values).
	Metrics = design.Metrics
	// Tech is the technology parameter set of the optical layer.
	Tech = loss.Tech
	// Recorder collects synthesis telemetry: hierarchical timed spans plus
	// named counters. Create one with NewRecorder, pass it in
	// Options.Recorder, then use Snapshot/WriteJSON/Summary to inspect the
	// trace after Synthesize returns.
	Recorder = obs.Recorder
	// Trace is the structured snapshot of a Recorder.
	Trace = obs.Trace
	// SpanSnap is one node of a Trace's span tree.
	SpanSnap = obs.SpanSnap
	// Registry aggregates process-wide telemetry — named counters plus
	// latency histograms (p50/p90/p99) for the pipeline stages and the
	// LP/MILP kernels — across synthesis runs. Every counter a run counts
	// reaches DefaultRegistry(); a run with a Recorder also reports its
	// own counts in the Recorder's Trace.Counters.
	Registry = obs.Registry
	// RegistrySnap is the immutable snapshot of a Registry.
	RegistrySnap = obs.RegistrySnap
	// HistSnap is the immutable snapshot of one registry histogram.
	HistSnap = obs.HistSnap
	// Options configures synthesis. It is the staged engine's option
	// struct, shared by all four methods; see the field docs in
	// internal/pipeline.
	Options = pipeline.Options
	// Cache memoizes pipeline stage outputs across Synthesize calls
	// (content-addressed, safe for concurrent use). Pass one in
	// Options.Cache to let sweeps that vary only downstream parameters
	// skip the upstream stages; cached designs are bit-identical to
	// uncached ones.
	Cache = pipeline.Cache
	// CacheConfig bounds and persists a cache: a total byte budget with
	// per-shard LRU eviction, a shard count, and an optional persistence
	// directory reloaded on construction.
	CacheConfig = pipeline.CacheConfig
	// CacheStats is a point-in-time statistics snapshot of a Cache.
	CacheStats = pipeline.CacheStats
)

// NewRecorder returns an empty telemetry recorder.
func NewRecorder() *Recorder { return obs.New() }

// DefaultRegistry returns the process-wide registry — the sink of every
// synthesis run's counters and histograms, and what a -telemetry endpoint
// serves at /metrics.
func DefaultRegistry() *Registry { return obs.Default() }

// NewCache returns an empty, unbounded, memory-only stage-output cache.
func NewCache() *Cache { return pipeline.NewCache() }

// NewCacheWithConfig returns a stage-output cache with a byte budget
// (LRU-evicted per shard) and, when cfg.Dir is set, disk persistence:
// entries are written behind stores and reloaded here on construction.
// Close a persistent cache to flush its write-behind queue.
func NewCacheWithConfig(cfg CacheConfig) (*Cache, error) {
	return pipeline.NewCacheWithConfig(cfg)
}

// DefaultTech returns the calibrated technology parameters (DESIGN.md §2).
func DefaultTech() Tech { return loss.Default() }

// Builtin benchmarks (paper Table I).
var (
	// MWD returns the 12-node multi-window display application.
	MWD = netlist.MWD
	// VOPD returns the 16-node video object plane decoder.
	VOPD = netlist.VOPD
	// MPEG returns the 12-node MPEG4 decoder.
	MPEG = netlist.MPEG
	// D26 returns the 26-node multimedia SoC.
	D26 = netlist.D26
	// PM24, PM32 and PM44 return the 8-node processor-memory networks.
	PM24 = netlist.PM24
	PM32 = netlist.PM32
	PM44 = netlist.PM44
	// Benchmarks returns all seven benchmarks in Table I order.
	Benchmarks = netlist.Benchmarks
	// ExtendedBenchmarks returns the four extension task graphs
	// (PIP, H263, MP3, MMS) not evaluated in the paper.
	ExtendedBenchmarks = netlist.Extended
	// Benchmark looks a builtin benchmark up by name.
	Benchmark = netlist.ByName
	// RandomApplication generates a deterministic random application.
	RandomApplication = netlist.Random
	// ClusteredApplication generates a cluster-structured application.
	ClusteredApplication = netlist.Clustered
)

// Method selects a synthesis method.
type Method string

// The four synthesis methods.
const (
	MethodSRing   Method = "SRing"
	MethodORNoC   Method = "ORNoC"
	MethodCTORing Method = "CTORing"
	MethodXRing   Method = "XRing"
)

// Methods returns all methods in the paper's comparison order.
func Methods() []Method {
	return []Method{MethodORNoC, MethodCTORing, MethodXRing, MethodSRing}
}

// DefaultMILPTimeLimit is the wall-clock budget of the exact wavelength
// assignment when Options.MILPTimeLimit is zero. It is defined once, in the
// solver (milp.DefaultTimeLimit); every layer above passes zero through.
const DefaultMILPTimeLimit = milp.DefaultTimeLimit

// Synthesize builds a router design for the application with the chosen
// method. Synthesis wall-clock time is measured by the engine, uniformly
// for all methods, and stored in the returned design's SynthesisTime
// (Table II). See SynthesizeContext for the cancellable form.
func Synthesize(app *Application, method Method, opt Options) (*Design, error) {
	return SynthesizeContext(context.Background(), app, method, opt)
}

// SynthesizeContext is Synthesize with cancellation. An already-cancelled
// context fails fast with the context error wrapped. A cancellation (or
// deadline) that strikes mid-synthesis degrades gracefully: the clustering
// keeps its best feasible construction, the MILP keeps its best incumbent,
// and the design is returned with Design.Cancelled set instead of an
// error. A context deadline unifies with Options.MILPTimeLimit — the
// solver stops at whichever comes first.
func SynthesizeContext(ctx context.Context, app *Application, method Method, opt Options) (*Design, error) {
	if app == nil {
		return nil, errors.New("sring: nil application")
	}
	return pipeline.Synthesize(ctx, app, string(method), opt)
}

// PlaceAndSynthesize places the application's nodes by simulated annealing
// (ignoring any coordinates it carries) and synthesises a router on the
// resulting floorplan. Use it for inputs that arrive as bare task graphs;
// the returned design's App field holds the placed application.
func PlaceAndSynthesize(app *Application, method Method, opt Options) (*Design, error) {
	return PlaceAndSynthesizeContext(context.Background(), app, method, opt)
}

// PlaceAndSynthesizeContext is PlaceAndSynthesize with cancellation,
// following the SynthesizeContext semantics.
func PlaceAndSynthesizeContext(ctx context.Context, app *Application, method Method, opt Options) (*Design, error) {
	if app == nil {
		return nil, errors.New("sring: nil application")
	}
	placed, err := floorplan.Place(app, floorplan.Options{Seed: 1})
	if err != nil {
		return nil, err
	}
	return SynthesizeContext(ctx, placed, method, opt)
}

// MethodErrors collects the per-method failures of an Evaluate call. It is
// returned alongside the metrics of the methods that succeeded, so one
// failing baseline does not throw away the rest of a Table I row group.
type MethodErrors map[Method]error

// Error joins the failures in Methods() order.
func (e MethodErrors) Error() string {
	var b strings.Builder
	b.WriteString("sring: ")
	first := true
	for _, m := range Methods() {
		if err, ok := e[m]; ok {
			if !first {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s: %v", m, err)
			first = false
		}
	}
	return b.String()
}

// Evaluate synthesises the application with every method and returns the
// metrics side by side, in Methods() order — one Table I row group. The
// methods run concurrently under Options.Parallelism (0 = GOMAXPROCS,
// 1 = sequential) with bit-identical per-method results either way.
//
// A method failure does not abort the others: the returned map always
// holds the metrics of every method that succeeded, and the error (a
// MethodErrors, when non-nil) says which methods failed and why.
func Evaluate(app *Application, opt Options) (map[Method]*Metrics, error) {
	return EvaluateContext(context.Background(), app, opt)
}

// EvaluateContext is Evaluate with cancellation: methods whose synthesis
// never started when the context fell carry the context error in the
// returned MethodErrors; methods already running degrade per the
// SynthesizeContext semantics.
func EvaluateContext(ctx context.Context, app *Application, opt Options) (map[Method]*Metrics, error) {
	if app == nil {
		return nil, errors.New("sring: nil application")
	}
	methods := Methods()
	mets := make([]*Metrics, len(methods))
	errs := make([]error, len(methods))
	started := make([]bool, len(methods))
	ctxErr := par.ForEachContext(ctx, opt.Parallelism, len(methods), func(i int) {
		started[i] = true
		m := methods[i]
		d, err := SynthesizeContext(ctx, app, m, opt)
		if err != nil {
			errs[i] = fmt.Errorf("on %s: %w", app.Name, err)
			return
		}
		mets[i], errs[i] = d.Metrics()
	})
	if ctxErr != nil {
		for i := range methods {
			if !started[i] {
				errs[i] = fmt.Errorf("on %s: synthesis not started: %w", app.Name, ctxErr)
			}
		}
	}
	out := make(map[Method]*Metrics, len(methods))
	failed := make(MethodErrors)
	for i, m := range methods {
		switch {
		case errs[i] != nil:
			failed[m] = errs[i]
		default:
			out[m] = mets[i]
		}
	}
	if len(failed) > 0 {
		return out, failed
	}
	return out, nil
}
