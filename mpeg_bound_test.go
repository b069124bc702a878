package sring

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"sring/internal/cluster"
	"sring/internal/design"
	"sring/internal/loss"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pipeline"
	"sring/internal/wavelength"
)

// mpegBoundNodes is the node budget of the MPEG work-unit pin: deep enough
// to run every solver layer (presolve, root LP, cut rounds, branching,
// warm-started node LPs, refactorisations), short enough for CI.
const mpegBoundNodes = 50

// mpegBoundModel is MPEG's exact wavelength model, built the way the
// mpeg-bound benchmark workload builds it: SRing construction, layout and
// loss pricing, then the heuristic assignment's palette plus one
// wavelength.
type mpegBoundModel struct {
	infos []wavelength.PathInfo
	w     wavelength.Weights
	heur  *wavelength.Assignment
}

func newMPEGBoundModel(tb testing.TB) *mpegBoundModel {
	tb.Helper()
	app := netlist.MPEG()
	opt := pipeline.Options{Parallelism: 2}
	tech, err := loss.Normalize(opt.Tech)
	if err != nil {
		tb.Fatal(err)
	}
	con, err := cluster.Construct(context.Background(), app, opt, nil)
	if err != nil {
		tb.Fatal(err)
	}
	lay, err := design.RouteLayout(app, con.Rings, nil)
	if err != nil {
		tb.Fatal(err)
	}
	infos, err := design.PriceLoss(app, con.Rings, con.Paths, lay, tech, con.MRRFullComplement, nil)
	if err != nil {
		tb.Fatal(err)
	}
	w := con.Weights
	w.SplitterStageDB = tech.SplitterStageDB()
	return &mpegBoundModel{infos: infos, w: w, heur: wavelength.Improve(infos, wavelength.DSATUR(infos), w)}
}

// solve builds the MILP and solves it from the heuristic incumbent to the
// node budget, recording the solver's counters under span.
func (mm *mpegBoundModel) solve(tb testing.TB, nodes int, span *obs.Span) *milp.Result {
	tb.Helper()
	m, err := wavelength.BuildMILP(mm.infos, mm.heur.NumLambda+1, mm.w)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := milp.SolveContext(context.Background(), m.Prob, milp.Options{
		TimeLimit:      time.Minute,
		NodeLimit:      nodes,
		Parallelism:    2,
		BranchPriority: m.Priority,
		Incumbent:      m.IncumbentVector(mm.infos, mm.heur, mm.w),
		Obs:            span,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if res.TimeLimitHit {
		tb.Fatal("MPEG solve hit its safety time limit")
	}
	return res
}

// TestMPEGBoundWorkUnits pins MPEG's exact solve at a 50-node budget: the
// explored-node fingerprint, incumbent objective, proven bound, simplex
// pivots (phase 1 + phase 2 + dual), LU refactorisations and the root cut
// counters (cuts separated and applied, rounds run, and cuts dropped by
// inheritance once they stay loose). Any change to
// the LP kernel's pivot sequence, the factorisation, cut separation or the
// branch-and-bound order moves at least one pin, so this is a bit-identity
// guard for the whole exact-assignment stack.
func TestMPEGBoundWorkUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("solves MPEG's exact model to 50 nodes")
	}
	const (
		wantFingerprint = 0xf1bff249fd9341b0
		wantObjective   = 51.4369
		wantBound       = 51.0053
		wantPivots      = 5049
		wantRefactors   = 208
	)
	rec := obs.New()
	span := rec.StartSpan("mpeg-bound")
	res := newMPEGBoundModel(t).solve(t, mpegBoundNodes, span)
	span.End()
	if res.Nodes != mpegBoundNodes {
		t.Errorf("explored %d nodes, want %d", res.Nodes, mpegBoundNodes)
	}
	if res.NodeFingerprint != wantFingerprint {
		t.Errorf("node fingerprint %#x, want %#x", res.NodeFingerprint, uint64(wantFingerprint))
	}
	if math.Abs(res.Objective-wantObjective) > 1e-6 {
		t.Errorf("objective %.6f, want %.6f", res.Objective, wantObjective)
	}
	if math.Abs(res.Bound-wantBound) > 1e-6 {
		t.Errorf("bound %.6f, want %.6f", res.Bound, wantBound)
	}
	pivots, refactors, _ := lpWork(rec)
	if pivots != wantPivots {
		t.Errorf("%d simplex pivots, want %d", pivots, wantPivots)
	}
	if refactors != wantRefactors {
		t.Errorf("%d refactorisations, want %d", refactors, wantRefactors)
	}
	counters := rec.Snapshot().Counters
	for _, pin := range []struct {
		name string
		want int64
	}{
		{"milp.cuts.separated", 61},
		{"milp.cuts.applied", 37},
		{"milp.cuts.rounds", 5},
		{"milp.cuts.purged", 115},
	} {
		if got := counters[pin.name]; got != pin.want {
			t.Errorf("%s = %d, want %d", pin.name, got, pin.want)
		}
	}
}

// TestMPEGBoundSpeculates guards the work-stealing pool against stalling:
// at Parallelism 2, MPEG's 50-node solve must keep the window of nodes
// best-first pops next covered with speculative solves, scheduling more
// than two windows' worth (4·workers). A pool that ranks its window by
// anything but the pop order fills it once with nodes the search never
// reaches and then solves every node inline, scheduling exactly 4. The
// fingerprint pins that speculation leaves the search bit-identical.
func TestMPEGBoundSpeculates(t *testing.T) {
	if testing.Short() {
		t.Skip("solves MPEG's exact model to 50 nodes")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("speculation is capped at GOMAXPROCS, so one CPU solves inline")
	}
	const workers = 2 // mpegBoundModel.solve's Parallelism
	rec := obs.New()
	span := rec.StartSpan("mpeg-bound")
	res := newMPEGBoundModel(t).solve(t, mpegBoundNodes, span)
	span.End()
	if res.NodeFingerprint != 0xf1bff249fd9341b0 {
		t.Errorf("node fingerprint %#x, want 0xf1bff249fd9341b0", res.NodeFingerprint)
	}
	c := rec.Snapshot().Counters
	t.Logf("milp.steal: scheduled %d, retired %d, wasted %d, reclaimed %d, stolen %d",
		c["milp.steal.scheduled"], c["milp.steal.retired"], c["milp.steal.wasted"],
		c["milp.steal.reclaimed"], c["milp.steal.stolen"])
	if got := c["milp.steal.scheduled"]; got <= 4*workers {
		t.Errorf("scheduled %d speculative solves in %d nodes, want more than %d", got, res.Nodes, 4*workers)
	}
}

// lpWork reads a run's simplex pivots (phase 1 + phase 2 + dual), LU
// refactorisations and sparse LP solves from its recorder.
func lpWork(rec *obs.Recorder) (pivots, refactors, solves int64) {
	c := rec.Snapshot().Counters
	return c["lp.pivots.phase1"] + c["lp.pivots.phase2"] + c["lp.pivots.dual"],
		c["lp.sparse.refactorizations"], c["lp.sparse.solves"]
}

// BenchmarkMPEGBound times MPEG's exact solve to the 50-node budget of
// TestMPEGBoundWorkUnits (model build included, construction excluded)
// and reports its deterministic work units: LP pivots and LU
// refactorisations per solve. CI runs one iteration as a smoke check:
//
//	go test -run - -bench BenchmarkMPEGBound -benchtime 1x .
func BenchmarkMPEGBound(b *testing.B) {
	mm := newMPEGBoundModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pivots, refactors int64
	for i := 0; i < b.N; i++ {
		rec := obs.New()
		span := rec.StartSpan("mpeg-bound")
		mm.solve(b, mpegBoundNodes, span)
		span.End()
		p, r, _ := lpWork(rec)
		pivots += p
		refactors += r
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(refactors)/float64(b.N), "refactorizations/op")
}
