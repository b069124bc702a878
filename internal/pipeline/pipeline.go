// Package pipeline is the canonical staged synthesis engine behind every
// method in this repository. A synthesis run is the fixed stage sequence
//
//	construct → layout → loss pricing → wavelength assignment → PDN
//
// where only the first stage differs between methods: each method package
// registers a Constructor that turns an application into rings, routed
// paths and downstream conventions (a Construction), and everything after
// that is shared code driven by one Options struct. The per-method option
// structs the front-ends used to copy (UseMILP, MILPTimeLimit, Parallelism,
// …) live here exactly once.
//
// The engine is context-aware: Synthesize fails fast on an already
// cancelled context, and a cancellation mid-flight degrades gracefully —
// the clustering returns its best feasible construction and the MILP its
// best incumbent, both flagged on the returned design (Design.Cancelled)
// instead of surfacing an error.
//
// Stage outputs are content-addressed: with a Cache installed, each stage's
// result is memoized under a hash of the application plus the option prefix
// that stage actually depends on. Sweeps that vary only downstream knobs
// (loss constants, MILP budgets) skip every upstream stage; hits and misses
// are reported through the pipeline.cache.* counters.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sring/internal/design"
	"sring/internal/loss"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pdn"
	"sring/internal/ring"
	"sring/internal/wavelength"
)

// Options configures a synthesis run. One struct drives every method and
// every stage; fields a method does not use are ignored by its constructor.
type Options struct {
	// Tech overrides the technology parameters (zero value: loss.Default()).
	// A non-zero Tech must be a plausible, fully populated parameter set:
	// Synthesize rejects negative or non-finite losses and partially
	// populated structs. Start from loss.Default() and override fields
	// rather than building a Tech from scratch.
	Tech loss.Tech
	// TreeHeight is the paper's h, the height of the L_max search tree used
	// by SRing's clustering (zero: 6). SRing only.
	TreeHeight int
	// ClusterTrials caps the initial vertices tried per cluster round
	// (zero: unlimited, the paper's behaviour). SRing only.
	ClusterTrials int
	// MaxChords caps the number of OSE express chords (zero:
	// max(1, #activeNodes / 3)). XRing only.
	MaxChords int
	// UseMILP enables the exact MILP wavelength assignment on instances
	// small enough for the built-in solver; the splitter-aware heuristic
	// always runs and seeds it.
	UseMILP bool
	// MILPTimeLimit bounds the exact solve (zero: milp.DefaultTimeLimit).
	// A context deadline or cancellation unifies with it: the solver stops
	// at whichever comes first and returns its incumbent.
	MILPTimeLimit time.Duration
	// Parallelism is the worker count used throughout the pipeline (0 =
	// GOMAXPROCS, 1 = sequential). The synthesised design is bit-identical
	// for every setting, which is why Parallelism is excluded from cache
	// keys.
	Parallelism int
	// Oracle names an independent cross-check solver run when the exact
	// wavelength assignment fails to prove optimality (wavelength
	// Options.Oracle; "cp" for the constraint-propagation search). It needs
	// UseMILP; empty disables, and any other name, or an oracle without
	// UseMILP, is an error.
	Oracle string
	// PhysicalPDN routes the power-distribution tree physically instead of
	// the abstract stage-count model.
	PhysicalPDN bool
	// Recorder, when non-nil, collects the full synthesis trace. Excluded
	// from cache keys; note that stages served from the cache record a
	// single cached-stage span instead of their usual sub-tree.
	Recorder *obs.Recorder
	// Cache, when non-nil, memoizes stage outputs across Synthesize calls
	// (content-addressed; safe for concurrent use). Cached designs are
	// bit-identical to uncached ones.
	Cache *Cache
}

// Construction is a constructor's output: the method-specific raw material
// plus the downstream conventions the shared stages must apply.
type Construction struct {
	// Rings are the ring waveguides, IDs unique.
	Rings []*ring.Ring
	// Paths holds one routed path per application message, in message order.
	Paths []ring.Path
	// Preset, when non-nil, is the method's own wavelength assignment (e.g.
	// ORNoC's first-fit), used verbatim after verification instead of
	// running the optimiser.
	Preset *wavelength.Assignment
	// PDNStyle and ForceNodeSplitter select the PDN construction convention.
	PDNStyle          pdn.Style
	ForceNodeSplitter bool
	// PDNAllTwoSender treats every sender node as having the full
	// two-sender complement (ORNoC/CTORing convention).
	PDNAllTwoSender bool
	// MRRFullComplement populates every node's complete MRR arrays on every
	// ring (ORNoC/CTORing convention); SRing and XRing prune.
	MRRFullComplement bool
	// Levels is the construction's hierarchy depth: 0 for flat methods,
	// 1 for an all-intra SRing clustering, 2 for the paper's two-level
	// shape, more when the multi-level constructor recursed.
	Levels int
	// Weights are the wavelength-assignment objective coefficients.
	Weights wavelength.Weights
	// SplitterWeightFromTech, when set, overrides Weights.SplitterStageDB
	// with the technology's splitter stage loss at assignment time. This
	// keeps the construction tech-independent (and therefore cacheable
	// across Tech variations) even for methods whose objective is
	// tech-coupled.
	SplitterWeightFromTech bool
	// Cancelled reports that the constructor was interrupted by context
	// cancellation and returned its best feasible construction so far.
	Cancelled bool
}

// Constructor builds a method's Construction. It must be deterministic in
// (app, opt) — Parallelism excepted, which must not change the result — and
// should honour ctx by returning its best feasible construction with
// Cancelled set rather than an error.
type Constructor func(ctx context.Context, app *netlist.Application, opt Options, parent *obs.Span) (*Construction, error)

var registry = map[string]Constructor{}

// Register installs a method's constructor; method packages call it from
// init(). Registering a name twice panics.
func Register(method string, c Constructor) {
	if c == nil {
		panic("pipeline: Register with nil constructor")
	}
	if _, dup := registry[method]; dup {
		panic(fmt.Sprintf("pipeline: method %q registered twice", method))
	}
	registry[method] = c
}

// Methods returns the registered method names, sorted.
func Methods() []string {
	out := make([]string, 0, len(registry))
	for m := range registry {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Synthesize runs the staged engine for the application with the named
// method. Synthesis wall-clock time is measured here, uniformly for all
// methods, and stored in the returned design's SynthesisTime.
//
// A context that is already cancelled fails fast with the context's error
// wrapped. A cancellation mid-run degrades gracefully: the stages return
// their best feasible results and the design comes back with Cancelled set
// instead of an error (unless cancellation struck before anything feasible
// existed, in which case the context error is returned).
func Synthesize(ctx context.Context, app *netlist.Application, method string, opt Options) (*design.Design, error) {
	start := time.Now()
	if app == nil {
		return nil, errors.New("pipeline: nil application")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: synthesis not started: %w", err)
	}
	ctor, ok := registry[method]
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown method %q (registered: %v)", method, Methods())
	}
	if err := wavelength.CheckOracle(opt.Oracle, opt.UseMILP); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	root := opt.Recorder.StartSpan("synthesize")
	root.SetString("method", method)
	root.SetString("app", app.Name)
	root.SetInt("nodes", int64(len(app.Nodes)))
	root.SetInt("messages", int64(len(app.Messages)))
	d, err := run(ctx, app, method, ctor, opt, root)
	root.End()
	if err != nil {
		return nil, err
	}
	d.SynthesisTime = time.Since(start)
	return d, nil
}

// Stage latency histograms in the process registry.
var (
	keybuildH  = obs.Default().Histogram("pipeline.cache.keybuild.ns")
	constructH = obs.Default().Histogram("pipeline.stage.construct.ns")
	layoutH    = obs.Default().Histogram("pipeline.stage.layout.ns")
	lossH      = obs.Default().Histogram("pipeline.stage.loss.ns")
	assignH    = obs.Default().Histogram("pipeline.stage.assign.ns")
	pdnH       = obs.Default().Histogram("pipeline.stage.pdn.ns")
)

// run executes the stage sequence under the root span.
func run(ctx context.Context, app *netlist.Application, method string, ctor Constructor, opt Options, root *obs.Span) (*design.Design, error) {
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	tech, err := loss.Normalize(opt.Tech)
	if err != nil {
		return nil, err
	}
	var keys stageKeys
	if opt.Cache != nil {
		keyStart := time.Now()
		keys = buildStageKeys(app, method, opt, tech)
		keybuildH.RecordSince(keyStart)
	}

	// Stage 1: construct (method-specific). checkConstruction guards both
	// sides: fresh results before they enter the cache, and — as compute's
	// validator — every hit, so a corrupted entry degrades to a recompute.
	stageStart := time.Now()
	v, fromCache, err := opt.Cache.compute(ctx, root, "construct", keys.construct,
		func(v interface{}) error { return validateConstruction(app, v) },
		func() (interface{}, bool, error) {
			con, err := ctor(ctx, app, opt, root)
			if err != nil {
				return nil, false, err
			}
			if err := checkConstruction(app, con); err != nil {
				return nil, false, err
			}
			return con, !con.Cancelled, nil
		})
	if err != nil {
		return nil, err
	}
	con := v.(*Construction)
	if fromCache {
		markCached(root, "construct")
	}
	constructH.RecordSince(stageStart)

	// Stage 2: layout.
	stageStart = time.Now()
	v, fromCache, err = opt.Cache.compute(ctx, root, "layout", keys.layout,
		func(v interface{}) error { return validateLayout(con, v) },
		func() (interface{}, bool, error) {
			res, err := design.RouteLayout(app, con.Rings, root)
			if err != nil {
				return nil, false, err
			}
			return &layoutValue{Res: res}, true, nil
		})
	if err != nil {
		return nil, err
	}
	lay := v.(*layoutValue)
	if fromCache {
		markCached(root, "layout")
	}
	layoutH.RecordSince(stageStart)

	// Stage 3: loss pricing (depends on Tech).
	stageStart = time.Now()
	v, fromCache, err = opt.Cache.compute(ctx, root, "loss", keys.loss,
		func(v interface{}) error { return validateInfos(app, v) },
		func() (interface{}, bool, error) {
			infos, err := design.PriceLoss(app, con.Rings, con.Paths, lay.Res, tech, con.MRRFullComplement, root)
			if err != nil {
				return nil, false, err
			}
			return infos, true, nil
		})
	if err != nil {
		return nil, err
	}
	infos := v.([]wavelength.PathInfo)
	if fromCache {
		markCached(root, "loss")
	}
	lossH.RecordSince(stageStart)

	// Stage 4: wavelength assignment. The cache stores a private clone —
	// assignments are mutable (Normalize) — so hits clone back out, while
	// the computing caller keeps its own original.
	stageStart = time.Now()
	var freshAssign *wavelength.Assignment
	var freshStats *wavelength.Stats
	v, fromCache, err = opt.Cache.compute(ctx, root, "assign", keys.assign,
		func(v interface{}) error { return validateAssign(infos, v) },
		func() (interface{}, bool, error) {
			var assignment *wavelength.Assignment
			var stats *wavelength.Stats
			var err error
			if con.Preset != nil {
				assignment, stats, err = design.UsePreset(infos, con.Preset, root)
			} else {
				w := con.Weights
				if con.SplitterWeightFromTech {
					w.SplitterStageDB = tech.SplitterStageDB()
				}
				assignment, stats, err = wavelength.AssignContext(ctx, infos, wavelength.Options{
					Weights:       w,
					UseMILP:       opt.UseMILP,
					MILPTimeLimit: opt.MILPTimeLimit,
					Parallelism:   opt.Parallelism,
					Oracle:        opt.Oracle,
					Obs:           root,
				})
			}
			if err != nil {
				return nil, false, err
			}
			freshAssign, freshStats = assignment, stats
			statsCopy := *stats
			return &assignValue{Assignment: assignment.Clone(), Stats: &statsCopy}, !stats.Cancelled, nil
		})
	if err != nil {
		return nil, err
	}
	var assignment *wavelength.Assignment
	var stats *wavelength.Stats
	if !fromCache && freshAssign != nil {
		assignment, stats = freshAssign, freshStats
	} else {
		av := v.(*assignValue)
		assignment = av.Assignment.Clone()
		statsCopy := *av.Stats
		stats = &statsCopy
	}
	if fromCache {
		markCached(root, "assign")
	}
	assignH.RecordSince(stageStart)

	// Stage 5: PDN.
	stageStart = time.Now()
	cfg := pdn.Config{
		Style:             con.PDNStyle,
		ForceNodeSplitter: con.ForceNodeSplitter,
		RoutePhysical:     opt.PhysicalPDN,
	}
	v, fromCache, err = opt.Cache.compute(ctx, root, "pdn", keys.pdn,
		func(v interface{}) error { return validatePDN(v) },
		func() (interface{}, bool, error) {
			network, err := design.BuildPDN(app, infos, assignment, cfg, con.PDNAllTwoSender, root)
			if err != nil {
				return nil, false, err
			}
			return network, true, nil
		})
	if err != nil {
		return nil, err
	}
	network := v.(*pdn.Network)
	if fromCache {
		markCached(root, "pdn")
	}
	pdnH.RecordSince(stageStart)

	return &design.Design{
		App:         app,
		Method:      method,
		Levels:      con.Levels,
		Rings:       con.Rings,
		Infos:       infos,
		Assignment:  assignment,
		Layout:      lay.Res,
		PDN:         network,
		Tech:        tech,
		AssignStats: stats,
		Cancelled:   con.Cancelled || stats.Cancelled,
	}, nil
}

// PathInfos runs the synthesis front half — construct, layout, loss
// pricing — and returns the priced paths the assignment stage would see,
// plus the effective objective weights. Cross-check tests use it to drive
// the assignment solvers directly on the real benchmark instances without
// duplicating the stage plumbing. Uncached; Recorder in opt is honoured,
// Cache is ignored.
func PathInfos(ctx context.Context, app *netlist.Application, method string, opt Options) ([]wavelength.PathInfo, wavelength.Weights, error) {
	var w wavelength.Weights
	if app == nil {
		return nil, w, errors.New("pipeline: nil application")
	}
	if err := app.Validate(); err != nil {
		return nil, w, fmt.Errorf("pipeline: %w", err)
	}
	ctor, ok := registry[method]
	if !ok {
		return nil, w, fmt.Errorf("pipeline: unknown method %q (registered: %v)", method, Methods())
	}
	tech, err := loss.Normalize(opt.Tech)
	if err != nil {
		return nil, w, err
	}
	root := opt.Recorder.StartSpan("pathinfos")
	defer root.End()
	con, err := ctor(ctx, app, opt, root)
	if err != nil {
		return nil, w, err
	}
	if err := checkConstruction(app, con); err != nil {
		return nil, w, err
	}
	lay, err := design.RouteLayout(app, con.Rings, root)
	if err != nil {
		return nil, w, err
	}
	infos, err := design.PriceLoss(app, con.Rings, con.Paths, lay, tech, con.MRRFullComplement, root)
	if err != nil {
		return nil, w, err
	}
	w = con.Weights
	if con.SplitterWeightFromTech {
		w.SplitterStageDB = tech.SplitterStageDB()
	}
	return infos, w, nil
}

// layoutValue wraps the layout result so the cache holds a single pointer
// type per stage. Fields are exported for the cache's gob persistence.
type layoutValue struct{ Res *layoutResult }

// layoutResult aliases the layout package's result through the design
// package's stage signature, keeping pipeline's import set minimal.
type layoutResult = design.LayoutResult

// assignValue is the cached output of the assignment stage. Fields are
// exported for the cache's gob persistence.
type assignValue struct {
	Assignment *wavelength.Assignment
	Stats      *wavelength.Stats
}

// markCached records that a stage was served from the cache, so traces
// show where the usual stage sub-tree went.
func markCached(root *obs.Span, stage string) {
	if sp := root.StartSpan("pipeline.cached"); sp.Enabled() {
		sp.SetString("stage", stage)
		sp.End()
	}
}

// The stage-hit validators: every cache hit — construct and downstream
// alike — passes a cheap shape check against this request's inputs before
// it is trusted, so a corrupted entry (a bad persistence file, a caller
// that mutated shared state) is dropped and recomputed instead of
// producing a corrupted design. Each starts with a type assertion because
// compute hands over a raw interface{}; a wrong dynamic type is just
// another corruption mode.

func validateConstruction(app *netlist.Application, v interface{}) error {
	con, ok := v.(*Construction)
	if !ok {
		return fmt.Errorf("pipeline: construct entry holds %T", v)
	}
	return checkConstruction(app, con)
}

func validateLayout(con *Construction, v interface{}) error {
	lay, ok := v.(*layoutValue)
	if !ok {
		return fmt.Errorf("pipeline: layout entry holds %T", v)
	}
	if lay.Res == nil || lay.Res.Routes == nil {
		return errors.New("pipeline: layout entry has no routes")
	}
	// Every ring of this construction must be routed and indexed —
	// RingWaveguideMM also exercises the ring index a persistence
	// round-trip has to restore.
	for _, r := range con.Rings {
		if _, err := lay.Res.RingWaveguideMM(r.ID); err != nil {
			return fmt.Errorf("pipeline: layout entry: %w", err)
		}
	}
	return nil
}

func validateInfos(app *netlist.Application, v interface{}) error {
	infos, ok := v.([]wavelength.PathInfo)
	if !ok {
		return fmt.Errorf("pipeline: loss entry holds %T", v)
	}
	if len(infos) != len(app.Messages) {
		return fmt.Errorf("pipeline: loss entry prices %d paths for %d messages", len(infos), len(app.Messages))
	}
	for i, pi := range infos {
		if pi.Path.Msg != app.Messages[i] {
			return fmt.Errorf("pipeline: loss entry path %d carries message %v, want %v", i, pi.Path.Msg, app.Messages[i])
		}
		if math.IsNaN(pi.LossDB) || math.IsInf(pi.LossDB, 0) || pi.LossDB < 0 {
			return fmt.Errorf("pipeline: loss entry path %d has loss %v dB", i, pi.LossDB)
		}
	}
	return nil
}

func validateAssign(infos []wavelength.PathInfo, v interface{}) error {
	av, ok := v.(*assignValue)
	if !ok {
		return fmt.Errorf("pipeline: assign entry holds %T", v)
	}
	if av.Assignment == nil || av.Stats == nil {
		return errors.New("pipeline: assign entry incomplete")
	}
	if len(av.Assignment.Lambda) != len(infos) {
		return fmt.Errorf("pipeline: assign entry covers %d paths, want %d", len(av.Assignment.Lambda), len(infos))
	}
	for i, l := range av.Assignment.Lambda {
		if l < 0 || l >= av.Assignment.NumLambda {
			return fmt.Errorf("pipeline: assign entry path %d has wavelength %d of %d", i, l, av.Assignment.NumLambda)
		}
	}
	return nil
}

func validatePDN(v interface{}) error {
	network, ok := v.(*pdn.Network)
	if !ok {
		return fmt.Errorf("pipeline: pdn entry holds %T", v)
	}
	if network == nil || network.FeedLengthMM == nil {
		return errors.New("pipeline: pdn entry has no feed lengths")
	}
	if network.TotalSplitters < 0 || network.TreeStages < 0 {
		return errors.New("pipeline: pdn entry has negative counts")
	}
	return nil
}

// checkConstruction validates a constructor's output the same way
// design.Finish validates its inputs; it runs on cache hits too (it is
// O(paths), cheap insurance against a corrupted cache entry).
func checkConstruction(app *netlist.Application, con *Construction) error {
	if con == nil {
		return errors.New("pipeline: constructor returned nil construction")
	}
	if len(con.Paths) != len(app.Messages) {
		return fmt.Errorf("pipeline: %d paths for %d messages", len(con.Paths), len(app.Messages))
	}
	ringByID := make(map[int]*ring.Ring, len(con.Rings))
	for _, r := range con.Rings {
		ringByID[r.ID] = r
	}
	for i, p := range con.Paths {
		if p.Msg != app.Messages[i] {
			return fmt.Errorf("pipeline: path %d carries message %v, want %v", i, p.Msg, app.Messages[i])
		}
		if _, ok := ringByID[p.RingID]; !ok {
			return fmt.Errorf("pipeline: path %d rides unknown ring %d", i, p.RingID)
		}
	}
	return nil
}
