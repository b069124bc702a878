package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"sring/internal/cluster"
	"sring/internal/design"
	"sring/internal/loss"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pdn"
	"sring/internal/pipeline"
	"sring/internal/wavelength"
)

// parallelism is the worker count of every synthesis and solve: the two
// CPUs of the reference machine. The load comes from one process.
const parallelism = 2

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// lanes is the number of client goroutines issuing ops concurrently.
	lanes int
	// minPasses is the least number of untraced passes a run makes, even
	// past its window: scale's passes are long, and a median needs several.
	minPasses int
	// setup builds the inputs, boots what serves them and runs one
	// untimed warm-up op.
	setup func(ctx context.Context, cfg config, g *goldenFile) (harness, error)
	// split, when set, divides the self time of the benchmark's own op
	// spans into server-side layers read from the program's registry,
	// returning the time left unattributed.
	split func(tm *telemetry, layers map[string]time.Duration, opSelf time.Duration) time.Duration
}

// harness is a workload after setup.
type harness interface {
	// pass runs one sweep over the workload's inputs. tm is nil on untraced
	// passes. Untraced passes get the run's calibration, to run the kernel
	// between ops.
	pass(ctx context.Context, tm *telemetry, cal *calibration) passResult
	// verify runs the untimed checks after the measured window and returns
	// the laser power and wavelength sums over the workload's distinct
	// designs.
	verify(ctx context.Context) (laserMW float64, wavelengths int, err error)
	close()
}

// passResult is what one pass measured.
type passResult struct {
	ops               []opTiming // completed ops
	attempted, failed int
	proven            int     // completed ops whose result is proven optimal
	gap               float64 // largest optimality gap of a completed op
	errs              []error
}

// opTiming is one completed op: its latency and the input it ran, as an
// index into the workload's inputs.
type opTiming struct {
	timing
	input int
}

func (pr *passResult) fail(err error) {
	pr.failed++
	if len(pr.errs) < 5 {
		pr.errs = append(pr.errs, err)
	}
}

var workloads = []workload{
	{name: "table1", lanes: 1, setup: setupTable1},
	{name: "scale", lanes: 1, minPasses: 3, setup: setupScale},
	{name: "exact", lanes: 1, setup: setupExact},
	{name: "mpeg-bound", lanes: 1, setup: setupMPEG},
	{name: "serve-sweep", lanes: 2, setup: setupServe, split: serveSplit},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// seqInput is one op of a sequential workload.
type seqInput struct {
	name   string // "app/method"
	app    *netlist.Application
	method string
	golden goldenDesign
}

// seqHarness runs its inputs one op at a time. Each pass draws a new
// seeded order, so that no input always follows the same one: what an op
// leaves in the caches and the heap would otherwise tie an input's latency
// to the seed.
type seqHarness struct {
	inputs []seqInput
	order  []int // the current pass's order, as indices into inputs
	rng    *splitmix
	// run performs one op; rec is nil on untraced passes.
	run func(ctx context.Context, in seqInput, rec *obs.Recorder) (*outcome, error)
	// check compares an op's outcome with its golden.
	check func(in seqInput, out *outcome) error
	// extra runs workload-specific checks on the first outcomes.
	extra func(ctx context.Context, first map[string]*outcome) error

	first map[string]*outcome
}

func newSeqHarness(inputs []seqInput, seed uint64) *seqHarness {
	s := &seqHarness{inputs: inputs, order: make([]int, len(inputs)), rng: &splitmix{state: seed},
		check: checkDesign, first: map[string]*outcome{}}
	for i := range s.order {
		s.order[i] = i
	}
	return s
}

func checkDesign(in seqInput, out *outcome) error { return in.golden.checkDesign(out.m) }

func (s *seqHarness) pass(ctx context.Context, tm *telemetry, cal *calibration) passResult {
	var pr passResult
	shuffle(s.order, s.rng)
	for _, i := range s.order {
		in := s.inputs[i]
		cal.maybe()
		pr.attempted++
		start := time.Now()
		out, err := s.run(ctx, in, tm.recorder())
		latency := time.Since(start)
		if err == nil {
			err = s.check(in, out)
		}
		if err != nil {
			pr.fail(fmt.Errorf("%s: %w", in.name, err))
			continue
		}
		pr.ops = append(pr.ops, opTiming{timing{start, latency, latency}, i})
		if out.proven {
			pr.proven++
		}
		pr.gap = math.Max(pr.gap, out.gap)
		if s.first[in.name] == nil {
			s.first[in.name] = out
		}
	}
	return pr
}

func (s *seqHarness) verify(ctx context.Context) (float64, int, error) {
	laser, wl := 0.0, 0
	for _, in := range s.inputs {
		out := s.first[in.name]
		if out == nil {
			return 0, 0, fmt.Errorf("%s: no result", in.name)
		}
		if err := out.d.Validate(); err != nil {
			return 0, 0, fmt.Errorf("%s: invalid design: %w", in.name, err)
		}
		laser += out.m.TotalLaserPowerMW
		wl += out.m.NumWavelengths
	}
	if s.extra != nil {
		if err := s.extra(ctx, s.first); err != nil {
			return 0, 0, err
		}
	}
	return laser, wl, nil
}

func (s *seqHarness) close() {}

// synthOp runs an input through synthesize with the given options.
func synthOp(opt pipeline.Options) func(ctx context.Context, in seqInput, rec *obs.Recorder) (*outcome, error) {
	return func(ctx context.Context, in seqInput, rec *obs.Recorder) (*outcome, error) {
		return synthesize(ctx, in.app, in.method, opt, rec)
	}
}

// designInputs pairs apps with methods and their golden rows.
func designInputs(apps []*netlist.Application, methods []string, rows []goldenDesign) ([]seqInput, error) {
	golden := index(rows)
	var inputs []seqInput
	for _, app := range apps {
		for _, m := range methods {
			name := app.Name + "/" + m
			g, ok := golden[name]
			if !ok {
				return nil, fmt.Errorf("golden.json has no row for %s", name)
			}
			inputs = append(inputs, seqInput{name: name, app: app, method: m, golden: g})
		}
	}
	return inputs, nil
}

func appsByName(names ...string) ([]*netlist.Application, error) {
	apps := make([]*netlist.Application, len(names))
	for i, n := range names {
		a, err := netlist.ByName(n)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	return apps, nil
}

// warmUp runs the named input once, untimed.
func (s *seqHarness) warmUp(ctx context.Context, name string) error {
	for _, in := range s.inputs {
		if in.name == name {
			out, err := s.run(ctx, in, nil)
			if err == nil {
				err = s.check(in, out)
			}
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", name, err)
			}
			return nil
		}
	}
	return fmt.Errorf("warm-up input %s not in the workload", name)
}

var paperMethods = []string{"ORNoC", "CTORing", "XRing", "SRing"}

// table1 is the paper's Table I grid with the heuristic assignment.
func setupTable1(ctx context.Context, cfg config, g *goldenFile) (harness, error) {
	inputs, err := designInputs(netlist.Benchmarks(), paperMethods, g.Table1)
	if err != nil {
		return nil, err
	}
	s := newSeqHarness(inputs, cfg.seed)
	s.run = synthOp(pipeline.Options{Parallelism: parallelism})
	return s, s.warmUp(ctx, "D26/SRing")
}

// scale is SRing's heuristic flow on the large synthetic apps.
func setupScale(ctx context.Context, cfg config, g *goldenFile) (harness, error) {
	names := []string{"D128", "D256", "circ128-1-11", "32PM-128"}
	if cfg.minimal {
		names = names[3:]
	}
	apps, err := appsByName(names...)
	if err != nil {
		return nil, err
	}
	inputs, err := designInputs(apps, []string{"SRing"}, g.Scale)
	if err != nil {
		return nil, err
	}
	s := newSeqHarness(inputs, cfg.seed)
	s.run = synthOp(pipeline.Options{Parallelism: parallelism, ClusterTrials: 8})
	return s, s.warmUp(ctx, "32PM-128/SRing")
}

// exact is SRing with the exact assignment on the six apps that reach a
// proof, by the MILP or by the CP oracle.
func setupExact(ctx context.Context, cfg config, g *goldenFile) (harness, error) {
	names, warm := []string{"MWD", "VOPD", "8PM-24", "D26", "8PM-32", "8PM-44"}, "D26/SRing"
	if cfg.minimal {
		names, warm = []string{"MWD", "VOPD", "8PM-32"}, "MWD/SRing"
	}
	apps, err := appsByName(names...)
	if err != nil {
		return nil, err
	}
	inputs, err := designInputs(apps, []string{"SRing"}, g.Exact)
	if err != nil {
		return nil, err
	}
	s := newSeqHarness(inputs, cfg.seed)
	synth := synthOp(pipeline.Options{Parallelism: parallelism, UseMILP: true, Oracle: wavelength.OracleCP})
	s.run = func(ctx context.Context, in seqInput, rec *obs.Recorder) (*outcome, error) {
		out, err := synth(ctx, in, rec)
		if err != nil {
			return nil, err
		}
		st := out.d.AssignStats
		out.proven = st.MILPExact || st.OracleExact
		if !out.proven && st.MILPRan {
			out.gap = st.MILPGap
		}
		return out, nil
	}
	s.check = func(in seqInput, out *outcome) error {
		st := out.d.AssignStats
		if proven := map[string]bool{"milp": st.MILPExact, "cp": st.OracleExact}[in.golden.ProvenBy]; !proven {
			return fmt.Errorf("not proven optimal by %s", in.golden.ProvenBy)
		}
		if math.Abs(st.Final.Value-in.golden.Objective) > goldenTol {
			return fmt.Errorf("objective = %.6f, golden %.6f", st.Final.Value, in.golden.Objective)
		}
		return checkDesign(in, out)
	}
	s.extra = func(ctx context.Context, first map[string]*outcome) error {
		return cpAgreesWithMILP(ctx, s.inputs, first)
	}
	return s, s.warmUp(ctx, warm)
}

// cpAgreesWithMILP re-solves every MILP-proven instance with the
// independent CP search over the final palette: a CP proof must reach the
// same optimum, and any CP bound must not exceed it.
func cpAgreesWithMILP(ctx context.Context, inputs []seqInput, first map[string]*outcome) error {
	for _, in := range inputs {
		if in.golden.ProvenBy != "milp" {
			continue
		}
		d := first[in.name].d
		w := wavelength.DefaultWeights()
		w.SplitterStageDB = d.Tech.SplitterStageDB()
		res, err := wavelength.SolveCP(ctx, d.Infos, d.Assignment.NumLambda, w, d.Assignment, 5*time.Second)
		if err != nil {
			return fmt.Errorf("%s: CP cross-check: %w", in.name, err)
		}
		if res.Exact && math.Abs(res.Objective-in.golden.Objective) > goldenTol {
			return fmt.Errorf("%s: CP optimum %.6f disagrees with the MILP's %.6f", in.name, res.Objective, in.golden.Objective)
		}
		if res.Bound > in.golden.Objective+goldenTol {
			return fmt.Errorf("%s: CP bound %.6f exceeds the MILP optimum %.6f", in.name, res.Bound, in.golden.Objective)
		}
	}
	return nil
}

// mpegHarness solves MPEG's exact wavelength model to a fixed node budget.
type mpegHarness struct {
	*seqHarness
	app    *netlist.Application
	con    *pipeline.Construction
	lay    *design.LayoutResult
	infos  []wavelength.PathInfo
	w      wavelength.Weights
	tech   loss.Tech
	heur   *wavelength.Assignment
	nodes  int
	golden goldenSolve
}

// mpegTimeLimit is a safety net only: reaching it fails the op, because a
// wall-clock stop would make the explored tree machine-dependent.
const mpegTimeLimit = 60 * time.Second

func setupMPEG(ctx context.Context, cfg config, g *goldenFile) (harness, error) {
	s := &mpegHarness{app: netlist.MPEG(), nodes: g.MPEGBound.NodeLimit, golden: g.MPEGBound}
	if cfg.minimal {
		s.nodes = 5
	}
	opt := pipeline.Options{Parallelism: parallelism}
	var err error
	if s.tech, err = loss.Normalize(opt.Tech); err != nil {
		return nil, err
	}
	if s.con, err = cluster.Construct(ctx, s.app, opt, nil); err != nil {
		return nil, err
	}
	if s.lay, err = design.RouteLayout(s.app, s.con.Rings, nil); err != nil {
		return nil, err
	}
	if s.infos, err = design.PriceLoss(s.app, s.con.Rings, s.con.Paths, s.lay, s.tech, s.con.MRRFullComplement, nil); err != nil {
		return nil, err
	}
	s.w = s.con.Weights
	s.w.SplitterStageDB = s.tech.SplitterStageDB()
	s.heur = wavelength.Improve(s.infos, wavelength.DSATUR(s.infos), s.w)

	s.seqHarness = newSeqHarness([]seqInput{{name: "MPEG/SRing", app: s.app, method: "SRing"}}, cfg.seed)
	s.run = func(ctx context.Context, _ seqInput, rec *obs.Recorder) (*outcome, error) {
		return s.solve(ctx, rec)
	}
	s.check = s.checkSolve
	return s, s.warmUp(ctx, "MPEG/SRing")
}

// solve builds the model over the heuristic's palette plus one wavelength,
// solves it from the heuristic incumbent with the model's branch
// priorities, and evaluates the incumbent as a design. On traced passes
// the op is an mpeg-bound span of rec: the solver and the PDN stage record
// their own spans under it, and the benchmark adds spans for the two calls
// that have none, BuildMILP and Metrics.
func (s *mpegHarness) solve(ctx context.Context, rec *obs.Recorder) (*outcome, error) {
	op := rec.StartSpan("mpeg-bound")
	defer op.End()
	sp := op.StartSpan("wavelength.build_milp")
	m, err := wavelength.BuildMILP(s.infos, s.heur.NumLambda+1, s.w)
	sp.End()
	if err != nil {
		return nil, err
	}
	res, err := milp.SolveContext(ctx, m.Prob, milp.Options{
		TimeLimit:      mpegTimeLimit,
		NodeLimit:      s.nodes,
		Parallelism:    parallelism,
		BranchPriority: m.Priority,
		Incumbent:      m.IncumbentVector(s.infos, s.heur, s.w),
		Obs:            op,
	})
	if err != nil {
		return nil, err
	}
	if res.TimeLimitHit {
		return nil, fmt.Errorf("hit the %v safety time limit", mpegTimeLimit)
	}
	if res.X == nil {
		return nil, fmt.Errorf("no incumbent (status %v)", res.Status)
	}
	a, err := m.Decode(res.X)
	if err != nil {
		return nil, err
	}
	cfg := pdn.Config{Style: s.con.PDNStyle, ForceNodeSplitter: s.con.ForceNodeSplitter}
	network, err := design.BuildPDN(s.app, s.infos, a, cfg, s.con.PDNAllTwoSender, op)
	if err != nil {
		return nil, err
	}
	d := &design.Design{App: s.app, Method: "SRing", Levels: s.con.Levels, Rings: s.con.Rings,
		Infos: s.infos, Assignment: a, Layout: s.lay, PDN: network, Tech: s.tech}
	sp = op.StartSpan("design.metrics")
	metrics, err := d.Metrics()
	sp.End()
	if err != nil {
		return nil, err
	}
	return &outcome{d: d, m: metrics, res: res, proven: res.Status == milp.Optimal, gap: res.Gap()}, nil
}

// checkSolve holds the solve to its invariants — a verified incumbent
// whose objective the model reports, a bound below it — and, at the golden
// node limit, to the golden objective, bound, gap and node fingerprint.
func (s *mpegHarness) checkSolve(_ seqInput, out *outcome) error {
	res := out.res
	if err := wavelength.Verify(s.infos, out.d.Assignment); err != nil {
		return err
	}
	if v := wavelength.Evaluate(s.infos, out.d.Assignment, s.w).Value; math.Abs(v-res.Objective) > goldenTol {
		return fmt.Errorf("incumbent evaluates to %.6f, solver reports %.6f", v, res.Objective)
	}
	if res.Bound > res.Objective+goldenTol {
		return fmt.Errorf("bound %.6f exceeds the incumbent %.6f", res.Bound, res.Objective)
	}
	return s.golden.checkSolve(s.nodes, res.Objective, res.Bound, res.Gap(), res.NodeFingerprint)
}
