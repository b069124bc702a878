package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sring/internal/obs"
)

// config is one benchmark invocation for one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// minimal shrinks every workload to its smallest input set, one setup
	// and one pass per mode: the smoke test's size.
	minimal bool
	// traceDir receives trace-<workload>.json after a traced run; empty
	// writes nothing.
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes explain the numbers (tail percentile and its sample count) and
	// name every mismatch; they are printed, not part of the contract.
	Notes []string `json:"notes,omitempty"`
}

// layerKeys are the layers of the ledger, each reported as
// <layer>_share: its self time as a percentage of the traced wall time.
var layerKeys = []string{
	"cluster.construct", "ornoc.construct", "ctoring.construct", "xring.construct",
	"layout.route", "loss.price", "wavelength.assign", "wavelength.milp",
	"wavelength.oracle", "wavelength.build_milp", "milp.presolve", "milp.solve",
	"pdn.build", "design.metrics",
	"pipeline.keybuild", "pipeline.stage_construct", "pipeline.stage_layout",
	"pipeline.stage_loss", "pipeline.stage_assign", "pipeline.stage_pdn",
	"serve.handler", "serve.http_overhead", "unattributed",
}

// spanLayers charges the self time of each recorded span to a layer. The
// program records every span except design.metrics and
// wavelength.build_milp, which the benchmark opens around the public calls
// that have no span of their own. The pipeline's synthesize root is
// charged to the op's construct layer (constructLayers): it holds the
// constructor's work outside any span of its own, and the pipeline's glue.
var spanLayers = map[string]string{
	"cluster.synthesize":    "cluster.construct",
	"cluster.bound":         "cluster.construct",
	"design.layout":         "layout.route",
	"design.loss":           "loss.price",
	"wavelength.assign":     "wavelength.assign",
	"wavelength.heuristic":  "wavelength.assign",
	"wavelength.milp":       "wavelength.milp",
	"wavelength.oracle":     "wavelength.oracle",
	"milp.presolve":         "milp.presolve",
	"milp.solve":            "milp.solve",
	"design.pdn":            "pdn.build",
	"design.metrics":        "design.metrics",
	"wavelength.build_milp": "wavelength.build_milp",
}

var constructLayers = map[string]string{
	"SRing": "cluster.construct", "ORNoC": "ornoc.construct",
	"CTORing": "ctoring.construct", "XRing": "xring.construct",
}

// opSpans are the benchmark's own root spans, one per op, around calls
// that are not a pipeline synthesis. Their self time is the workload's to
// split (serve-sweep) or stays unattributed.
var opSpans = map[string]bool{"mpeg-bound": true, "serve.request": true}

// maxUnattributed is the largest share of the traced wall time the ledger
// may leave unattributed; beyond it, the spans no longer explain the run.
const maxUnattributed = 0.05

// timing is a duration d measured in the interval [start, start+span);
// d excludes kernel runs inside the interval.
type timing struct {
	start   time.Time
	d, span time.Duration
}

// setupRepeats is how often a run sets its workload up; setup_s is the
// median.
const setupRepeats = 3

// runWorkload sets the workload up, measures it for cfg.seconds and
// checks its outputs. Measurement failures are returned as errors; output
// mismatches make the result incorrect.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if cfg.minimal {
		repeats = 1
	}
	cal := newCalibration()
	var setups []timing
	var s harness
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
		}
		cal.maybe()
		start := time.Now()
		if s, err = w.setup(ctx, cfg, g); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		d := time.Since(start)
		setups = append(setups, timing{start, d, d})
	}
	defer s.close()

	// The measured window: passes until cfg.seconds have elapsed. A traced
	// run alternates untraced and traced passes, so the two walls compare
	// like with like. Kernel runs inside a pass are excluded from its
	// wall time and allocations; traced passes run none.
	type passTiming struct {
		wall      timing
		ops       []opTiming
		allocated uint64
	}
	var (
		res                          = &result{Metrics: map[string]metric{}}
		untraced, traced             []passTiming
		tracedOps, proven, completed int
		gap                          float64
		tm                           *telemetry
	)
	minPasses := 1
	if !cfg.minimal {
		minPasses = max(minPasses, w.minPasses)
	}
	if cfg.trace {
		tm = newTelemetry()
		minPasses *= 2 // as many traced passes as untraced ones
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for k := 0; k < minPasses || time.Since(start) < window; k++ {
		cal.maybe()
		isTraced := cfg.trace && k%2 == 1
		var ptm *telemetry
		pcal := cal
		if isTraced {
			ptm, pcal = tm, nil
			tm.begin()
		}
		spent, kernelAllocs := cal.spent, cal.allocated
		allocStart := heapBytes()
		passStart := time.Now()
		pr := s.pass(ctx, ptm, pcal)
		span := time.Since(passStart)
		pt := passTiming{
			wall:      timing{passStart, span - (cal.spent - spent), span},
			ops:       pr.ops,
			allocated: heapBytes() - allocStart - (cal.allocated - kernelAllocs),
		}
		if isTraced {
			tm.finish()
			traced = append(traced, pt)
			tracedOps += pr.attempted
		} else {
			untraced = append(untraced, pt)
			completed += len(pr.ops)
		}
		res.Attempted += pr.attempted
		res.Failed += pr.failed
		proven += pr.proven
		gap = math.Max(gap, pr.gap)
		for _, e := range pr.errs {
			res.Notes = append(res.Notes, "mismatch: "+e.Error())
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	cal.sample()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	laser, wl, verr := s.verify(ctx)
	if verr != nil {
		res.Notes = append(res.Notes, "mismatch: "+verr.Error())
	}
	res.Correct = verr == nil && res.Failed == 0
	if completed == 0 {
		return res, fmt.Errorf("%s: no op completed", w.name)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("calibration: %d kernel runs, median %v (nominal %v); timings are scaled by nominal/kernel",
		len(cal.k), median(cal.k), calibrationNominal))

	var untracedWall, rawTracedWall, latencies []time.Duration
	byInput := map[int][]time.Duration{}
	var rates []float64
	var allocated uint64
	for _, p := range untraced {
		wall := cal.scale(p.wall.d, p.wall.start, p.wall.span)
		untracedWall = append(untracedWall, wall)
		for _, op := range p.ops {
			d := cal.scale(op.d, op.start, op.span)
			latencies = append(latencies, d)
			byInput[op.input] = append(byInput[op.input], d)
		}
		if n := len(p.ops); n > 0 {
			rates = append(rates, float64(n)/wall.Seconds())
		}
		allocated += p.allocated
	}
	var tracedLatencies []time.Duration
	for _, p := range traced {
		rawTracedWall = append(rawTracedWall, p.wall.d)
		for _, op := range p.ops {
			tracedLatencies = append(tracedLatencies, cal.scale(op.d, op.start, op.span))
		}
	}

	if !cfg.trace {
		var setupTimes []time.Duration
		for _, t := range setups {
			setupTimes = append(setupTimes, cal.scale(t.d, t.start, t.span))
		}
		res.Metrics["setup_s"] = metric{median(setupTimes).Seconds(), "s"}
		res.Metrics["wall_s"] = metric{median(untracedWall).Seconds(), "s"}
		res.Metrics["designs_per_s"] = metric{medianF(rates), "1/s"}
		p50, tail, note := latencyStats(latencies, byInput)
		res.Metrics["latency_p50_ms"] = metric{ms(p50), "ms"}
		res.Metrics["latency_tail_ms"] = metric{ms(tail), "ms"}
		res.Notes = append(res.Notes, note)
		// Allocation is totalled over the run: it counts work, which the
		// host's speed does not change, and the serve passes differ in it.
		res.Metrics["alloc_mb_per_design"] = metric{float64(allocated) / 1e6 / float64(completed), "MB"}
		res.Metrics["laser_mw_sum"] = metric{laser, "mW"}
		res.Metrics["wavelengths_sum"] = metric{float64(wl), "count"}
		return res, nil
	}

	// Tracing overhead compares median op latencies, not pass walls:
	// untraced serve passes pause between turns for the kernel, traced ones
	// do not, so their walls differ in more than tracing.
	overhead := median(tracedLatencies).Seconds()/median(latencies).Seconds() - 1
	if err := ledger(res, w, tm, rawTracedWall, tracedOps); err != nil {
		return nil, err
	}
	res.Metrics["trace.overhead_frac"] = metric{overhead, "ratio"}
	res.Notes = append(res.Notes, fmt.Sprintf("tracing overhead: traced op median %v vs untraced %v (%+.1f%%)",
		median(tracedLatencies), median(latencies), 100*overhead))
	res.Metrics["wavelength.proven_frac"] = metric{float64(proven) / float64(res.Attempted), "ratio"}
	res.Metrics["milp.gap"] = metric{gap, "ratio"}
	res.Metrics["runtime.peak_rss_mb"] = metric{rss, "MB"}
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, "trace-"+w.name+".json")
		if err := writeChromeTrace(path, tm.rec); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, "chrome trace written to "+path)
	}
	return res, nil
}

func writeChromeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ledger fills the per-layer metrics of a traced run from the program's
// telemetry: the self time of every recorded span, charged to its layer as
// a share of the traced wall time (uncalibrated: shares are ratios within
// the same passes), and the program's counters per op. What no span covers
// — between ops, and the benchmark's own glue inside an op — is
// unattributed; the run fails when that exceeds maxUnattributed, or when
// the spans claim more time than the wall.
func ledger(res *result, w workload, tm *telemetry, tracedWall []time.Duration, ops int) error {
	var wall time.Duration
	for _, d := range tracedWall {
		wall += d
	}
	// Concurrent clients each contribute the whole wall time.
	wall *= time.Duration(w.lanes)
	trace := tm.rec.Snapshot()
	layers := map[string]time.Duration{}
	var spans, opSelf time.Duration
	var charge func(s *obs.SpanSnap, layer string) error
	charge = func(s *obs.SpanSnap, layer string) error {
		self := s.Duration()
		for _, c := range s.Children {
			self -= c.Duration()
			l, ok := spanLayers[c.Name]
			if !ok {
				return fmt.Errorf("%s: span %q is not a ledger layer", w.name, c.Name)
			}
			if err := charge(c, l); err != nil {
				return err
			}
		}
		if self < -wall/100 {
			return fmt.Errorf("%s: span %s has negative self time %v", w.name, s.Name, self)
		}
		if layer == "" {
			opSelf += self
		} else {
			layers[layer] += self
		}
		return nil
	}
	for _, root := range trace.Spans {
		spans += root.Duration()
		layer, ok := spanLayers[root.Name]
		switch {
		case root.Name == "synthesize":
			method, _ := root.Attrs["method"].(string)
			layer, ok = constructLayers[method]
		case opSpans[root.Name]:
			layer, ok = "", true
		}
		if !ok {
			return fmt.Errorf("%s: root span %q is not a ledger layer", w.name, root.Name)
		}
		if err := charge(root, layer); err != nil {
			return err
		}
	}
	if w.split != nil {
		opSelf = w.split(tm, layers, opSelf)
	}
	unattributed := wall - spans + opSelf
	if unattributed < -wall/100 || unattributed > time.Duration(maxUnattributed*float64(wall)) {
		return fmt.Errorf("%s: %v of %v traced wall is unattributed (allowed: −1%% to %.0f%%)",
			w.name, unattributed, wall, 100*maxUnattributed)
	}
	layers["unattributed"] = unattributed
	known := map[string]bool{}
	for _, k := range layerKeys {
		known[k] = true
		if d := layers[k]; d < -wall/100 {
			return fmt.Errorf("%s: layer %s has negative self time %v", w.name, k, d)
		}
		res.Metrics[k+"_share"] = metric{share(layers[k], wall), "%"}
	}
	for k := range layers {
		if !known[k] {
			return fmt.Errorf("%s: layer %q is not reported", w.name, k)
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("ledger: %v of %v traced wall (%d lane(s)) unattributed", unattributed, wall, w.lanes))

	busy := map[string]time.Duration{
		"cluster.probe_busy_share": time.Duration(tm.histSum["cluster.probe.ns"]),
		"milp.node_busy_share":     time.Duration(tm.histSum["milp.node.ns"]),
		"lp.solve_busy_share":      time.Duration(tm.histSum["lp.solve.ns"]),
		"lp.refactor_busy_share":   time.Duration(tm.histSum["lp.sparse.refactor.ns"]),
		"par.task_wait_share":      time.Duration(tm.histSum["par.task.wait.ns"]),
		"par.task_run_share":       time.Duration(tm.histSum["par.task.run.ns"]),
		"runtime.gc_pause_share":   tm.gcPause,
	}
	for name, d := range busy {
		res.Metrics[name] = metric{share(d, wall), "%"}
	}

	c := counters{rec: trace.Counters, reg: tm.reg}
	n := float64(ops)
	perOp := func(v float64) metric { return metric{v / n, "count/op"} }
	names := map[string]string{
		"cluster.search_iterations":  "cluster.search.iterations",
		"cluster.absorptions":        "cluster.absorptions",
		"wavelength.oracle_runs":     "wavelength.oracle.runs",
		"wavelength.oracle_exact":    "wavelength.oracle.exact",
		"milp.nodes":                 "milp.nodes",
		"milp.cuts_separated":        "milp.cuts.separated",
		"milp.cuts_applied":          "milp.cuts.applied",
		"milp.cut_rounds":            "milp.cuts.rounds",
		"milp.presolve_rows_removed": "milp.presolve.rows_removed",
		"milp.heuristic_dives":       "milp.heuristic.dives",
		"milp.steal_scheduled":       "milp.steal.scheduled",
		"lp.solves":                  "lp.solves",
		"lp.refactorizations":        "lp.sparse.refactorizations",
		"lp.ft_updates":              "lp.ft.updates",
		"lp.ft_fallbacks":            "lp.ft.fallbacks",
		"lp.rows_appended":           "lp.rows.appended",
		"pipeline.cache_hits":        "pipeline.cache.hits",
		"pipeline.cache_misses":      "pipeline.cache.misses",
		"pipeline.cache_evictions":   "pipeline.cache.evictions",
		"pipeline.cache_coalesced":   "pipeline.cache.coalesced",
		"pipeline.cache_invalid":     "pipeline.cache.invalid",
		"serve.requests":             "serve.requests",
		"serve.rejected":             "serve.rejected",
		"serve.errors":               "serve.request.errors",
	}
	for name, counter := range names {
		res.Metrics[name] = perOp(c.count(counter))
	}
	pivots := c.count("lp.pivots.phase1") + c.count("lp.pivots.phase2") + c.count("lp.pivots.dual")
	res.Metrics["lp.pivots"] = perOp(pivots)
	res.Metrics["cluster.probes"] = perOp(float64(tm.histN["cluster.probe.ns"]))
	res.Metrics["runtime.gc_cycles"] = perOp(float64(tm.gcCycles))
	res.Metrics["runtime.alloc_mb"] = metric{float64(tm.alloc) / 1e6 / n, "MB/op"}

	ratio := func(num, den float64) metric {
		if den == 0 {
			return metric{0, "ratio"}
		}
		return metric{num / den, "ratio"}
	}
	res.Metrics["lp.pivots_per_solve"] = metric{ratio(pivots, c.count("lp.solves")).Value, "count"}
	// Speculative work is useful when consumed: 1 − wasted/scheduled.
	scheduled := c.count("cluster.spec.scheduled")
	res.Metrics["cluster.spec_useful_frac"] = ratio(scheduled-c.count("cluster.spec.wasted"), scheduled)
	scheduled = c.count("milp.steal.scheduled")
	res.Metrics["milp.steal_useful_frac"] = ratio(scheduled-c.count("milp.steal.wasted"), scheduled)
	res.Metrics["milp.cuts_useful_frac"] = ratio(c.count("milp.cuts.applied"), c.count("milp.cuts.separated"))
	res.Metrics["milp.heuristic_found_frac"] = ratio(c.count("milp.heuristic.found"), c.count("milp.heuristic.dives"))
	fallbacks := c.count("lp.warmstart.fallbacks")
	res.Metrics["lp.warmstart_fallback_frac"] = ratio(fallbacks, fallbacks+c.count("lp.warmstart.solves"))
	hits := c.count("pipeline.cache.hits")
	res.Metrics["pipeline.cache_hit_rate"] = ratio(hits, hits+c.count("pipeline.cache.misses"))
	return nil
}

func share(d, wall time.Duration) float64 { return 100 * float64(d) / float64(wall) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencyStats returns the typical and the tail op latency. The typical
// latency is the median over the workload's inputs of each input's median
// latency: the inputs differ in size, and the median of all ops would fall
// in the gap between two of them and jump with a few ops. The tail is the
// highest percentile with at least ten ops beyond it (the 11th slowest
// op); a run with too few ops for that reports the slowest input's median.
// The note says which, over how many ops.
func latencyStats(latencies []time.Duration, byInput map[int][]time.Duration) (p50, tail time.Duration, note string) {
	var medians []time.Duration
	for _, ds := range byInput {
		medians = append(medians, median(ds))
	}
	medians = sortedDurations(medians)
	p50 = median(medians)
	note = fmt.Sprintf("latency_p50_ms: median of %d inputs' median latencies", len(medians))
	s := sortedDurations(latencies)
	n := len(s)
	if n < 21 {
		return p50, medians[len(medians)-1], note + fmt.Sprintf("; latency_tail_ms: the slowest input's median, of only %d ops", n)
	}
	return p50, s[n-11], note + fmt.Sprintf("; latency_tail_ms: p%.2f, the 10 ops beyond it of %d", 100*float64(n-10)/float64(n), n)
}

func sortedDurations(xs []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median is the nearest-rank median.
func median(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	return sortedDurations(xs)[(len(xs)-1)/2]
}

// peakRSSMB reads the process's peak resident set size (VmHWM, Linux).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
