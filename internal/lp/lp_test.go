package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// solveCold builds a solver for p with the given constructor (NewSolver for
// the FT kernel, NewDenseSolver for the dense oracle) and solves it from
// scratch under the default bounds x >= 0.
func solveCold(newSolver func(*Problem) (*Solver, error), p *Problem) (*Solution, error) {
	s, err := newSolver(p)
	if err != nil {
		return nil, err
	}
	return s.SolveBounded(nil, nil, time.Time{})
}

// checkFeasible verifies that x satisfies every constraint of p within tol.
func checkFeasible(t *testing.T, p *Problem, x []float64, tol float64) {
	t.Helper()
	for _, v := range x {
		if v < -tol {
			t.Errorf("negative variable value %v", v)
		}
	}
	for i, c := range p.Constraints {
		var lhs float64
		for v, coeff := range c.Coeffs {
			lhs += coeff * x[v]
		}
		switch c.Rel {
		case LE:
			if lhs > c.RHS+tol {
				t.Errorf("constraint %d violated: %v <= %v", i, lhs, c.RHS)
			}
		case GE:
			if lhs < c.RHS-tol {
				t.Errorf("constraint %d violated: %v >= %v", i, lhs, c.RHS)
			}
		case EQ:
			if !approx(lhs, c.RHS, tol) {
				t.Errorf("constraint %d violated: %v = %v", i, lhs, c.RHS)
			}
		}
	}
}

// Classic production problem:
// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj 36.
func TestProductionProblem(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{-3, -5}}
	p.AddConstraint(LE, 4, map[int]float64{0: 1})
	p.AddConstraint(LE, 12, map[int]float64{1: 2})
	p.AddConstraint(LE, 18, map[int]float64{0: 3, 1: 2})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, -36, 1e-6) {
		t.Errorf("objective = %v, want -36", s.Objective)
	}
	if !approx(s.X[0], 2, 1e-6) || !approx(s.X[1], 6, 1e-6) {
		t.Errorf("X = %v, want [2 6]", s.X)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

// Minimisation with GE rows (diet-style, needs phase 1):
// min 0.6x + y s.t. 10x + 4y >= 20, 5x + 5y >= 20, 2x + 6y >= 12 => x,y >= 0.
func TestDietProblem(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{0.6, 1}}
	p.AddConstraint(GE, 20, map[int]float64{0: 10, 1: 4})
	p.AddConstraint(GE, 20, map[int]float64{0: 5, 1: 5})
	p.AddConstraint(GE, 12, map[int]float64{0: 2, 1: 6})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	checkFeasible(t, p, s.X, 1e-6)
	// Optimum is at intersection of constraints 2 and 3: x=3, y=1, obj 2.8.
	if !approx(s.Objective, 2.8, 1e-6) {
		t.Errorf("objective = %v, want 2.8", s.Objective)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + 2y + 3z s.t. x + y + z = 10, y - z = 2.
	p := &Problem{NumVars: 3, Objective: []float64{1, 2, 3}}
	p.AddConstraint(EQ, 10, map[int]float64{0: 1, 1: 1, 2: 1})
	p.AddConstraint(EQ, 2, map[int]float64{1: 1, 2: -1})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	checkFeasible(t, p, s.X, 1e-6)
	// Best: push everything into x; y=2, z=0, x=8 => 8 + 4 = 12.
	if !approx(s.Objective, 12, 1e-6) {
		t.Errorf("objective = %v, want 12", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint(GE, 5, map[int]float64{0: 1})
	p.AddConstraint(LE, 3, map[int]float64{0: 1})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{-1, 0}}
	p.AddConstraint(GE, 1, map[int]float64{0: 1, 1: 1})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalisation(t *testing.T) {
	// x - y <= -2 with min x  => flip to y - x >= 2; optimum x=0 (y=2).
	p := &Problem{NumVars: 2, Objective: []float64{1, 0}}
	p.AddConstraint(LE, -2, map[int]float64{0: 1, 1: -1})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	checkFeasible(t, p, s.X, 1e-6)
	if !approx(s.X[0], 0, 1e-6) {
		t.Errorf("x = %v, want 0", s.X[0])
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Degenerate vertex at origin with redundant constraints; Bland's rule
	// fallback must terminate.
	p := &Problem{NumVars: 3, Objective: []float64{-0.75, 150, -0.02}}
	p.AddConstraint(LE, 0, map[int]float64{0: 0.25, 1: -60, 2: -0.04})
	p.AddConstraint(LE, 0, map[int]float64{0: 0.5, 1: -90, 2: -0.02})
	p.AddConstraint(LE, 1, map[int]float64{2: 1})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	checkFeasible(t, p, s.X, 1e-6)
	// Known optimum of this Beale-style cycling example is z=1 active, with
	// objective -0.05... (exact value checked loosely against feasibility).
	if s.Objective > 0 {
		t.Errorf("objective = %v, want <= 0", s.Objective)
	}
}

func TestZeroObjective(t *testing.T) {
	// Feasibility problem: any feasible point acceptable.
	p := &Problem{NumVars: 2}
	p.AddConstraint(EQ, 4, map[int]float64{0: 1, 1: 1})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

func TestValidateErrors(t *testing.T) {
	if _, err := solveCold(NewSolver, &Problem{NumVars: 0}); err == nil {
		t.Error("accepted problem without variables")
	}
	p := &Problem{NumVars: 2, Objective: []float64{1}}
	if _, err := solveCold(NewSolver, p); err == nil {
		t.Error("accepted objective of wrong length")
	}
	p2 := &Problem{NumVars: 1}
	p2.AddConstraint(LE, 1, map[int]float64{5: 1})
	if _, err := solveCold(NewSolver, p2); err == nil {
		t.Error("accepted out-of-range variable index")
	}
	// An unknown relation must be rejected, not solved as an equality —
	// by Validate, by both constructors, and by ReplaceRows.
	p3 := &Problem{NumVars: 1, Objective: []float64{-1}}
	p3.AddConstraint(Rel(7), 3, map[int]float64{0: 1})
	if err := p3.Validate(); err == nil {
		t.Error("Validate accepted an unknown relation")
	}
	for _, mk := range []func(*Problem) (*Solver, error){NewSolver, NewDenseSolver} {
		if _, err := mk(p3); err == nil {
			t.Error("constructor accepted an unknown relation")
		}
	}
	s, err := NewSolver(&Problem{NumVars: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceRows(0, []Constraint{{Coeffs: map[int]float64{0: 1}, Rel: Rel(7), RHS: 3}}); err == nil {
		t.Error("ReplaceRows accepted an unknown relation")
	}
}

// Random LE-only LPs with bounded feasible region: solution must always be
// feasible and no better than any sampled feasible point.
func TestRandomLPsOptimalityAndFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		m := 2 + rng.Intn(6)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.Float64()*4 - 2
		}
		// Box constraints keep it bounded.
		for j := 0; j < n; j++ {
			p.AddConstraint(LE, 1+rng.Float64()*5, map[int]float64{j: 1})
		}
		for i := 0; i < m; i++ {
			terms := map[int]float64{}
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					terms[j] = rng.Float64() * 3
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(LE, 1+rng.Float64()*8, terms)
		}
		s, err := solveCold(NewSolver, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v (origin is always feasible)", trial, s.Status)
		}
		checkFeasible(t, p, s.X, 1e-6)
		// Sample random feasible points; none may beat the reported optimum.
		for k := 0; k < 20; k++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 2
			}
			feasible := true
			for _, c := range p.Constraints {
				var lhs float64
				for v, coeff := range c.Coeffs {
					lhs += coeff * x[v]
				}
				if lhs > c.RHS+1e-9 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			var obj float64
			for j := range x {
				obj += p.Objective[j] * x[j]
			}
			if obj < s.Objective-1e-6 {
				t.Fatalf("trial %d: sampled point beats optimum: %v < %v", trial, obj, s.Objective)
			}
		}
	}
}

// Assignment-problem LPs have integral optimal vertices; the simplex should
// find the exact matching value.
func TestAssignmentLP(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	n := 3
	p := &Problem{NumVars: n * n, Objective: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.Objective[i*n+j] = cost[i][j]
		}
	}
	for i := 0; i < n; i++ {
		rowTerms := map[int]float64{}
		colTerms := map[int]float64{}
		for j := 0; j < n; j++ {
			rowTerms[i*n+j] = 1
			colTerms[j*n+i] = 1
		}
		p.AddConstraint(EQ, 1, rowTerms)
		p.AddConstraint(EQ, 1, colTerms)
	}
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// Optimal assignment: (0,1)+(1,0)+(2,2) = 1+2+2 = 5.
	if !approx(s.Objective, 5, 1e-6) {
		t.Errorf("objective = %v, want 5", s.Objective)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

func TestRelAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Rel strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration-limit" {
		t.Error("Status strings wrong")
	}
	if Rel(9).String() != "Rel(9)" || Status(9).String() != "Status(9)" {
		t.Error("unknown enum strings wrong")
	}
}

func TestAddConstraintDropsZeros(t *testing.T) {
	p := &Problem{NumVars: 2}
	p.AddConstraint(LE, 1, map[int]float64{0: 0, 1: 2})
	if _, ok := p.Constraints[0].Coeffs[0]; ok {
		t.Error("zero coefficient retained")
	}
	if p.Constraints[0].Coeffs[1] != 2 {
		t.Error("nonzero coefficient lost")
	}
}
