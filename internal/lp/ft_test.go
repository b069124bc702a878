package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sring/internal/obs"
)

// denseRandomLP builds a deterministic, fully dense LP large enough to
// force many simplex pivots with sizeable spikes — the workload that
// exercises Forrest-Tomlin updates and the fill-growth refactorisation
// trigger rather than the singleton-peeling fast paths.
func denseRandomLP(seed int64, m, n int) (*Problem, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Objective[j] = rng.Float64()*2 - 1
	}
	for i := 0; i < m; i++ {
		terms := map[int]float64{}
		for j := 0; j < n; j++ {
			terms[j] = rng.Float64()*2 - 1
		}
		p.AddConstraint(LE, 1+rng.Float64()*float64(n), terms)
	}
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := 0; j < n; j++ {
		hi[j] = 1 + rng.Float64()*3
	}
	return p, lo, hi
}

// TestFTRepresentationInvariant drives a solve with the periodic
// refactorisation count effectively disabled, then verifies the update
// representation directly: FTRAN of every basic column through the live
// FT file must reproduce the corresponding unit vector.
func TestFTRepresentationInvariant(t *testing.T) {
	p, lo, hi := denseRandomLP(3, 12, 16)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	s.refactorEveryOverride = 1 << 20
	sol, err := s.SolveBounded(lo, hi, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.FTUpdates == 0 {
		t.Fatal("solve performed no Forrest-Tomlin updates")
	}
	k, ok := s.k.(*ftKernel)
	if !ok {
		t.Fatalf("NewSolver kernel is %T, want *ftKernel", s.k)
	}
	v := make([]float64, s.m)
	for r := 0; r < s.m; r++ {
		k.scatter(v, int(s.basis[r]))
		k.ftran(v)
		for i := 0; i < s.m; i++ {
			want := 0.0
			if i == r {
				want = 1.0
			}
			if math.Abs(v[i]-want) > 1e-6 {
				t.Fatalf("B^-1 B e_%d [%d] = %v, want %v (after %d FT updates)",
					r, i, v[i], want, sol.FTUpdates)
			}
		}
	}
}

// TestFTFillTriggerRefactorises disables the update-count trigger and
// checks that the fill-growth trigger alone still schedules mid-solve
// refactorisations on a dense workload: accumulated spike + eta-pair
// nonzeros crossing half the pristine factored nonzeros must rebuild.
func TestFTFillTriggerRefactorises(t *testing.T) {
	p, lo, hi := denseRandomLP(5, 40, 50)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	s.refactorEveryOverride = 1 << 20
	sol, err := s.SolveBounded(lo, hi, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// A cold solve starts from the slack identity (no refactorisation
	// install), so with the count trigger parked every recorded
	// refactorisation was scheduled by fill growth.
	if sol.SparseRefactorizations == 0 {
		t.Fatalf("no fill-triggered refactorisation in %d pivots / %d FT updates",
			sol.Phase1Pivots+sol.Phase2Pivots, sol.FTUpdates)
	}
	// The post-solve state must respect the trigger invariant: fill either
	// below threshold or the triggers backing off after a singular rebuild.
	k := s.k.(*ftKernel)
	if k.rebuildCooloff == 0 && k.updates > 0 && 2*k.addedNnz >= k.baseNnz+ftFillSlack {
		t.Fatalf("fill trigger violated at solve end: addedNnz=%d baseNnz=%d", k.addedNnz, k.baseNnz)
	}
}

// TestFTRefactorEveryOverride checks the test hook carries over to the FT
// kernel: with the override at 1, a mid-solve refactorisation must occur
// after every update — strictly more than the default cadence schedules —
// without moving the optimum.
func TestFTRefactorEveryOverride(t *testing.T) {
	p, lo, hi := denseRandomLP(5, 10, 14)
	def, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	dsol, err := def.SolveBounded(lo, hi, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	ov.refactorEveryOverride = 1
	osol, err := ov.SolveBounded(lo, hi, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if dsol.Status != Optimal || osol.Status != Optimal {
		t.Fatalf("statuses %v / %v", dsol.Status, osol.Status)
	}
	if !approx(dsol.Objective, osol.Objective, 1e-7) {
		t.Fatalf("objective changed under refactorEveryOverride: %v vs %v", dsol.Objective, osol.Objective)
	}
	if osol.SparseRefactorizations <= dsol.SparseRefactorizations {
		t.Fatalf("override=1 produced %d refactorisations, default %d — hook inert?",
			osol.SparseRefactorizations, dsol.SparseRefactorizations)
	}
}

// TestRefactorCauseCounters checks the lp.sparse.refactor.* cause counters
// against the refactorisations a cold solve and two warm re-solves from one
// snapshot perform, and that lp.sparse.refactor.ns records exactly one
// sample per elimination: fill, cadence and rejected-update rebuilds plus
// fresh warm-start builds. A memo hit eliminates nothing and is not timed.
func TestRefactorCauseCounters(t *testing.T) {
	p, lo, hi := denseRandomLP(5, 40, 50)
	for _, every := range []int{1 << 20, 3} {
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		before := obs.Default().Snapshot()
		s.refactorEveryOverride = every
		sol, err := s.SolveBounded(lo, hi, time.Time{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("every=%d: cold solve %v %v", every, err, sol)
		}
		installs := sol.SparseRefactorizations
		bas := s.Basis()
		hi2 := append([]float64(nil), hi...)
		hi2[0] /= 2
		for i := 0; i < 2; i++ {
			wsol, ok, err := s.SolveDual(bas, lo, hi2, time.Time{})
			if err != nil || !ok {
				t.Fatalf("every=%d: warm re-solve %d: ok=%v err=%v", every, i, ok, err)
			}
			installs += wsol.SparseRefactorizations
		}

		snap := obs.Default().Snapshot().Sub(before)
		c := snap.Counters
		fill, cadence := c["lp.sparse.refactor.fill"], c["lp.sparse.refactor.cadence"]
		rejected := c["lp.sparse.refactor.rejected"]
		built, memo := c["lp.sparse.refactor.warm_built"], c["lp.sparse.refactor.warm_memo"]
		if built != 1 || memo != 1 {
			t.Errorf("every=%d: warm_built=%d warm_memo=%d, want 1/1", every, built, memo)
		}
		if every == 3 && cadence == 0 {
			t.Errorf("every=3: no cadence-triggered refactorisation")
		}
		if every != 3 && (fill == 0 || cadence != 0) {
			t.Errorf("every parked: fill=%d cadence=%d, want fill > 0 and no cadence", fill, cadence)
		}
		if got := fill + cadence + rejected + built + memo; got != int64(installs) {
			t.Errorf("every=%d: causes sum to %d, solutions report %d refactorisations", every, got, installs)
		}
		if h := snap.Histograms["lp.sparse.refactor.ns"]; h == nil || h.Count != fill+cadence+rejected+built {
			t.Errorf("every=%d: lp.sparse.refactor.ns has %v samples, want %d", every, h, fill+cadence+rejected+built)
		}
	}
}

// TestFTFailedRescue hands the FT kernel an exchange that leaves the basis
// singular — a structural column that appears in no row entering the slack
// basis — and checks the kernel's one failure path: the update is
// rejected, the rescue refactorisation is singular under pinned and free
// pivoting alike, pivot reports failure, and lp.ft.fallbacks records it.
func TestFTFailedRescue(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{-1, -1}}
	p.AddConstraint(LE, 1, map[int]float64{0: 1})
	p.AddConstraint(LE, 2, map[int]float64{0: 1})
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snapshot()
	if _, err := s.setBounds(nil, nil); err != nil {
		t.Fatal(err)
	}
	k := s.k.(*ftKernel)
	k.beginSolve()
	s.loadSlackBasis()

	// The Solver's half of the exchange: x1 replaces row 0's slack.
	for _, a := range k.column(1) {
		if a != 0 {
			t.Fatalf("column 1 is not empty: %v", k.colScratch)
		}
	}
	out := s.basis[0]
	s.inBasis[out] = false
	s.inBasis[1] = true
	s.basis[0] = 1
	if k.pivot(0, 1) {
		t.Fatal("pivot accepted a singular basis")
	}

	sol := &Solution{}
	k.solveStats(sol)
	if sol.FTFallbacks != 1 || sol.FTUpdates != 0 || sol.SparseSingularRefactors != 1 {
		t.Fatalf("fallbacks=%d updates=%d singular=%d, want 1/0/1",
			sol.FTFallbacks, sol.FTUpdates, sol.SparseSingularRefactors)
	}
	rec := obs.New()
	AccumulateStats(rec.StartSpan("solve"), sol)
	if got := rec.Snapshot().Counters["lp.ft.fallbacks"]; got != 1 {
		t.Fatalf("lp.ft.fallbacks = %d, want 1", got)
	}
	// One refactorisation attempt, caused by the rejected update, timed
	// once although it ran both the pinned and the free elimination.
	snap := obs.Default().Snapshot().Sub(before)
	if got := snap.Counters["lp.sparse.refactor.rejected"]; got != 1 {
		t.Errorf("lp.sparse.refactor.rejected = %d, want 1", got)
	}
	if h := snap.Histograms["lp.sparse.refactor.ns"]; h == nil || h.Count != 1 {
		t.Errorf("lp.sparse.refactor.ns = %v, want one sample", h)
	}
}

// refusingKernel is an FT kernel whose every basis exchange fails, the way
// a pivot with a singular rescue refactorisation does.
type refusingKernel struct{ *ftKernel }

func (refusingKernel) pivot(int, int) bool { return false }

// TestFailedPivotStopsLoops checks how the pivot loops treat a kernel that
// cannot represent the new basis: the primal and dual loops stop with
// IterLimit after that one pivot, without claiming the deadline, so a warm
// SolveDual declines (ok=false) and its caller falls back to a cold solve.
func TestFailedPivotStopsLoops(t *testing.T) {
	// Primal: max 3x + 5y from the (primal feasible) slack basis.
	prod := &Problem{NumVars: 2, Objective: []float64{-3, -5}}
	prod.AddConstraint(LE, 4, map[int]float64{0: 1})
	prod.AddConstraint(LE, 12, map[int]float64{1: 2})
	prod.AddConstraint(LE, 18, map[int]float64{0: 3, 1: 2})
	// Dual: a diet problem, whose slack basis is dual but not primal
	// feasible.
	diet := &Problem{NumVars: 2, Objective: []float64{0.6, 1}}
	diet.AddConstraint(GE, 20, map[int]float64{0: 10, 1: 4})
	diet.AddConstraint(GE, 20, map[int]float64{0: 5, 1: 5})

	for _, tc := range []struct {
		name string
		p    *Problem
		loop func(s *Solver, st *iterState) Status
	}{
		{"primal", prod, func(s *Solver, st *iterState) Status { return s.primalSimplex(st) }},
		{"dual", diet, func(s *Solver, st *iterState) Status {
			s.initPert()
			return s.dualSimplex(st, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			s.k = refusingKernel{s.k.(*ftKernel)}
			if _, err := s.setBounds(nil, nil); err != nil {
				t.Fatal(err)
			}
			s.k.beginSolve()
			s.loadSlackBasis()
			st := s.newIterState(time.Time{})
			if got := tc.loop(s, &st); got != IterLimit {
				t.Fatalf("status %v, want IterLimit", got)
			}
			if st.deadlineHit {
				t.Fatal("failed pivot reported as a deadline")
			}
			if st.pivots != 1 {
				t.Fatalf("%d pivots, want the loop to stop at the first", st.pivots)
			}
		})
	}

	// Warm start: the real kernel solves the diet problem, the refusing one
	// re-enters from its basis under a tightened bound.
	s, err := NewSolver(diet)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.SolveBounded(nil, nil, time.Time{})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v %v", err, sol.Status)
	}
	bas := s.Basis()
	s.k = refusingKernel{s.k.(*ftKernel)}
	hi := []float64{sol.X[0] / 2, math.Inf(1)}
	if _, ok, err := s.SolveDual(bas, nil, hi, time.Time{}); err != nil || ok {
		t.Fatalf("warm solve over a failed pivot: ok=%v err=%v, want ok=false", ok, err)
	}
}
