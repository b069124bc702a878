package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// solveBothWays solves p cold under default bounds with the FT kernel and
// with the legacy dense-tableau kernel (the oracle), and checks they agree
// on status and objective.
func solveBothWays(t *testing.T, p *Problem) (*Solution, *Solver) {
	t.Helper()
	dense, err := solveCold(NewDenseSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.SolveBounded(nil, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != dense.Status {
		t.Fatalf("bounded status = %v, dense %v", sol.Status, dense.Status)
	}
	if sol.Status == Optimal {
		if !approx(sol.Objective, dense.Objective, 1e-6) {
			t.Fatalf("bounded objective = %v, dense %v", sol.Objective, dense.Objective)
		}
		checkFeasible(t, p, sol.X, 1e-6)
	}
	return sol, s
}

// Fixed textbook problems, replayed through the FT kernel and checked
// against the legacy dense-tableau kernel.
func TestBoundedMatchesLegacyFixed(t *testing.T) {
	prod := &Problem{NumVars: 2, Objective: []float64{-3, -5}}
	prod.AddConstraint(LE, 4, map[int]float64{0: 1})
	prod.AddConstraint(LE, 12, map[int]float64{1: 2})
	prod.AddConstraint(LE, 18, map[int]float64{0: 3, 1: 2})

	diet := &Problem{NumVars: 2, Objective: []float64{0.6, 1}}
	diet.AddConstraint(GE, 20, map[int]float64{0: 10, 1: 4})
	diet.AddConstraint(GE, 20, map[int]float64{0: 5, 1: 5})
	diet.AddConstraint(GE, 12, map[int]float64{0: 2, 1: 6})

	infeas := &Problem{NumVars: 1, Objective: []float64{1}}
	infeas.AddConstraint(LE, 1, map[int]float64{0: 1})
	infeas.AddConstraint(GE, 2, map[int]float64{0: 1})

	unbounded := &Problem{NumVars: 2, Objective: []float64{-1, 0}}
	unbounded.AddConstraint(GE, 1, map[int]float64{0: 1})

	eq := &Problem{NumVars: 3, Objective: []float64{2, 3, 1}}
	eq.AddConstraint(EQ, 10, map[int]float64{0: 1, 1: 1, 2: 1})
	eq.AddConstraint(GE, 4, map[int]float64{0: 1, 1: -1})

	for name, p := range map[string]*Problem{
		"production": prod, "diet": diet, "infeasible": infeas,
		"unbounded": unbounded, "equality": eq,
	} {
		p := p
		t.Run(name, func(t *testing.T) { solveBothWays(t, p) })
	}
}

// Bounds passed to the Solver must behave exactly like explicit constraint
// rows under the default bounds, solved by the dense oracle.
func TestBoundedBoundsMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p, lo, hi := randomBoundedProblem(rng)

		// Oracle: bounds as rows, dense kernel.
		rowP := &Problem{NumVars: p.NumVars, Objective: p.Objective}
		rowP.Constraints = append(rowP.Constraints, p.Constraints...)
		for j := 0; j < p.NumVars; j++ {
			if lo[j] > 0 {
				rowP.AddConstraint(GE, lo[j], map[int]float64{j: 1})
			}
			if !math.IsInf(hi[j], 1) {
				rowP.AddConstraint(LE, hi[j], map[int]float64{j: 1})
			}
		}
		dense, err := solveCold(NewDenseSolver, rowP)
		if err != nil {
			t.Fatal(err)
		}

		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.SolveBounded(lo, hi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != dense.Status {
			t.Fatalf("trial %d: bounded status = %v, dense %v (problem %+v lo=%v hi=%v)",
				trial, sol.Status, dense.Status, p, lo, hi)
		}
		if sol.Status == Optimal && !approx(sol.Objective, dense.Objective, 1e-5) {
			t.Fatalf("trial %d: bounded objective = %v, dense %v (problem %+v lo=%v hi=%v)",
				trial, sol.Objective, dense.Objective, p, lo, hi)
		}
	}
}

// TestDualEqualsCold is the warm-start contract: re-solving under tightened
// bounds via the dual simplex from the parent basis must reach the same
// objective as a cold solve of the child, with the pivots attributed to the
// warm-start fields.
func TestDualEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	warmSeen := false
	for trial := 0; trial < 300; trial++ {
		p, lo, hi := randomBoundedProblem(rng)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := s.SolveBounded(lo, hi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if parent.Status != Optimal {
			continue
		}
		bas := s.Basis()

		// Tighten a branching-style bound around the parent optimum.
		v := rng.Intn(p.NumVars)
		childLo := append([]float64(nil), lo...)
		childHi := append([]float64(nil), hi...)
		if rng.Intn(2) == 0 {
			childHi[v] = math.Floor(parent.X[v])
		} else {
			childLo[v] = math.Ceil(parent.X[v] + 1e-9)
		}

		warm, ok, err := s.SolveDual(bas, childLo, childHi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: refactorisation of a freshly produced basis failed", trial)
		}
		if !warm.WarmStarted {
			t.Fatalf("trial %d: warm solution not marked WarmStarted", trial)
		}
		if warm.Phase1Pivots != 0 {
			t.Fatalf("trial %d: warm solve reports phase-1 pivots (%d)", trial, warm.Phase1Pivots)
		}

		s2, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := s2.SolveBounded(childLo, childHi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status = %v, cold %v (problem %+v lo=%v hi=%v)",
				trial, warm.Status, cold.Status, p, childLo, childHi)
		}
		if warm.Status == Optimal {
			if !approx(warm.Objective, cold.Objective, 1e-5) {
				t.Fatalf("trial %d: warm objective = %v, cold %v", trial, warm.Objective, cold.Objective)
			}
			checkFeasible(t, p, warm.X, 1e-6)
			for j := range warm.X {
				if warm.X[j] < childLo[j]-1e-6 || warm.X[j] > childHi[j]+1e-6 {
					t.Fatalf("trial %d: warm X[%d]=%v outside [%v,%v]", trial, j, warm.X[j], childLo[j], childHi[j])
				}
			}
			if warm.DualPivots > 0 {
				warmSeen = true
			}
		}
	}
	if !warmSeen {
		t.Error("no trial exercised a non-trivial dual warm start")
	}
}

// Warm starts must also work across several levels of tightening, reusing
// one Solver's arena throughout (the branch-and-bound usage pattern).
func TestDualChain(t *testing.T) {
	p := &Problem{NumVars: 3, Objective: []float64{1, 2, 3}}
	p.AddConstraint(GE, 10, map[int]float64{0: 1, 1: 1, 2: 1})
	p.AddConstraint(GE, 4, map[int]float64{1: 1, 2: 2})
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.SolveBounded(nil, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 14, 1e-6) {
		t.Fatalf("root: %+v (want objective 14: x=[8,2,0])", sol)
	}
	lo := []float64{0, 0, 0}
	hi := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	// Squeezing x0's upper bound to 8 and 6 leaves the optimum at 14
	// (alternate optima [8,0,2] and [6,4,0]); at 4 the cheapest fill is
	// y=6, giving 4+12=16.
	want := []float64{14, 14, 16}
	for depth := 0; depth < 3; depth++ {
		bas := s.Basis()
		hi[0] = 8 - 2*float64(depth) // 8, 6, 4: squeeze x0 down
		warm, ok, err := s.SolveDual(bas, lo, hi, time.Time{})
		if err != nil || !ok {
			t.Fatalf("depth %d: warm solve failed (ok=%v err=%v)", depth, ok, err)
		}
		if warm.Status != Optimal || !approx(warm.Objective, want[depth], 1e-6) {
			t.Fatalf("depth %d: got %+v, want objective %v", depth, warm, want[depth])
		}
	}
	// Contradictory bounds are proven infeasible before any pivoting.
	lo[0], hi[0] = 5, 4
	warm, ok, err := s.SolveDual(s.Basis(), lo, hi, time.Time{})
	if err != nil || !ok {
		t.Fatalf("crossed bounds: ok=%v err=%v", ok, err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("crossed bounds: status = %v, want infeasible", warm.Status)
	}
}

// Beale's classic cycling example. Dantzig pricing is prone to cycling on
// it; the Bland switch must terminate the solve at the true optimum. With
// the trigger forced to fire immediately we also pin down that (a) Bland
// pivots are counted and (b) a subsequent warm-started solve starts with a
// fresh iteration counter instead of inheriting the cycling suspicion.
func TestDegenerateBlandSwitch(t *testing.T) {
	beale := func() *Problem {
		p := &Problem{NumVars: 4, Objective: []float64{-0.75, 150, -0.02, 6}}
		p.AddConstraint(LE, 0, map[int]float64{0: 0.25, 1: -60, 2: -0.04, 3: 9})
		p.AddConstraint(LE, 0, map[int]float64{0: 0.5, 1: -90, 2: -0.02, 3: 3})
		p.AddConstraint(LE, 1, map[int]float64{2: 1})
		return p
	}

	// Dense oracle at the default Bland trigger: must terminate and find
	// the optimum -0.05.
	dense, err := solveCold(NewDenseSolver, beale())
	if err != nil {
		t.Fatal(err)
	}
	if dense.Status != Optimal || !approx(dense.Objective, -0.05, 1e-9) {
		t.Fatalf("dense: %+v, want optimal -0.05", dense)
	}

	s, err := NewSolver(beale())
	if err != nil {
		t.Fatal(err)
	}
	s.blandAfterOverride = 1 // force the anti-cycling rule almost immediately
	sol, err := s.SolveBounded(nil, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -0.05, 1e-9) {
		t.Fatalf("bounded: %+v, want optimal -0.05", sol)
	}
	if sol.BlandPivots == 0 {
		t.Error("forced Bland trigger produced no Bland pivots")
	}

	// A warm re-solve under a tightened bound runs its own fresh iteration
	// count: with the override removed it must not register Bland pivots
	// for the handful of dual pivots it needs.
	s.blandAfterOverride = 0
	hi := []float64{math.Inf(1), math.Inf(1), 0.5, math.Inf(1)}
	warm, ok, err := s.SolveDual(s.Basis(), nil, hi, time.Time{})
	if err != nil || !ok {
		t.Fatalf("warm: ok=%v err=%v", ok, err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm: %+v", warm)
	}
	if warm.BlandPivots != 0 {
		t.Errorf("warm solve inherited cycling suspicion: %d Bland pivots", warm.BlandPivots)
	}
}

// randomBoundedProblem generates a small LP with integer-ish data, finite
// upper bounds on a random subset of variables, and a mix of row relations.
// All lower bounds are finite (>= 0), so the feasible region is pointed and
// any optimum sits on a vertex — which is what the brute-force enumerator
// in vertexenum_test.go relies on.
func randomBoundedProblem(rng *rand.Rand) (*Problem, []float64, []float64) {
	n := 2 + rng.Intn(3)
	m := 1 + rng.Intn(3)
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Objective[j] = float64(rng.Intn(11) - 5)
		hi[j] = math.Inf(1)
		if rng.Intn(2) == 0 {
			hi[j] = float64(1 + rng.Intn(6))
		}
		if rng.Intn(4) == 0 {
			lo[j] = float64(rng.Intn(3))
			if lo[j] > hi[j] {
				hi[j] = lo[j] + float64(rng.Intn(3))
			}
		}
		if math.IsInf(hi[j], 1) && p.Objective[j] < 0 {
			// Keep the instance bounded: a negative cost with no cap is
			// an easy unbounded ray; cap it most of the time.
			if rng.Intn(4) != 0 {
				hi[j] = float64(2 + rng.Intn(6))
			}
		}
	}
	for i := 0; i < m; i++ {
		terms := map[int]float64{}
		for j := 0; j < n; j++ {
			if c := rng.Intn(7) - 3; c != 0 {
				terms[j] = float64(c)
			}
		}
		if len(terms) == 0 {
			terms[rng.Intn(n)] = 1
		}
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(15) - 3)
		p.AddConstraint(rel, rhs, terms)
	}
	return p, lo, hi
}
