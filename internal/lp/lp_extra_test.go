package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Balanced transportation problem with a known optimum.
// Supplies: 20, 30. Demands: 10, 25, 15.
// Costs: [[8, 6, 10], [9, 12, 13]].
// Optimal: ship s0->d1 (20 @6), s1->d0 (10 @9), s1->d1 (5 @12), s1->d2 (15 @13)
// = 120 + 90 + 60 + 195 = 465.
func TestTransportationProblem(t *testing.T) {
	costs := [][]float64{{8, 6, 10}, {9, 12, 13}}
	supply := []float64{20, 30}
	demand := []float64{10, 25, 15}
	p := &Problem{NumVars: 6, Objective: make([]float64, 6)}
	v := func(i, j int) int { return i*3 + j }
	for i := range costs {
		for j := range costs[i] {
			p.Objective[v(i, j)] = costs[i][j]
		}
	}
	for i := range supply {
		terms := map[int]float64{}
		for j := range demand {
			terms[v(i, j)] = 1
		}
		p.AddConstraint(EQ, supply[i], terms)
	}
	for j := range demand {
		terms := map[int]float64{}
		for i := range supply {
			terms[v(i, j)] = 1
		}
		p.AddConstraint(EQ, demand[j], terms)
	}
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, 465, 1e-6) {
		t.Errorf("objective = %v, want 465", s.Objective)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

// Scaling the objective scales the optimum linearly.
func TestObjectiveScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = -rng.Float64()
		}
		for j := 0; j < n; j++ {
			p.AddConstraint(LE, 1+rng.Float64()*3, map[int]float64{j: 1})
		}
		s1, err := solveCold(NewSolver, p)
		if err != nil || s1.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, err, s1.Status)
		}
		scaled := &Problem{NumVars: n, Objective: make([]float64, n), Constraints: p.Constraints}
		k := 1 + rng.Float64()*5
		for j := range scaled.Objective {
			scaled.Objective[j] = k * p.Objective[j]
		}
		s2, err := solveCold(NewSolver, scaled)
		if err != nil || s2.Status != Optimal {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !approx(s2.Objective, k*s1.Objective, 1e-6*(1+math.Abs(k*s1.Objective))) {
			t.Errorf("trial %d: scaled objective %v, want %v", trial, s2.Objective, k*s1.Objective)
		}
	}
}

// Adding a redundant constraint never changes the optimum.
func TestRedundantConstraintInvariance(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{-3, -5}}
	p.AddConstraint(LE, 4, map[int]float64{0: 1})
	p.AddConstraint(LE, 12, map[int]float64{1: 2})
	p.AddConstraint(LE, 18, map[int]float64{0: 3, 1: 2})
	s1, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	p.AddConstraint(LE, 1000, map[int]float64{0: 1, 1: 1}) // redundant
	s2, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s1.Objective, s2.Objective, 1e-9) {
		t.Errorf("redundant constraint changed optimum: %v vs %v", s1.Objective, s2.Objective)
	}
}

// GE-heavy LP whose phase-1 must work hard; optimum known by hand:
// min x+y+z s.t. x+y >= 4, y+z >= 4, x+z >= 4 => x=y=z=2, obj 6.
func TestSymmetricCover(t *testing.T) {
	p := &Problem{NumVars: 3, Objective: []float64{1, 1, 1}}
	p.AddConstraint(GE, 4, map[int]float64{0: 1, 1: 1})
	p.AddConstraint(GE, 4, map[int]float64{1: 1, 2: 1})
	p.AddConstraint(GE, 4, map[int]float64{0: 1, 2: 1})
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 6, 1e-6) {
		t.Fatalf("status=%v obj=%v, want optimal 6", s.Status, s.Objective)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

// A redundant equality system (rank-deficient) must still solve: the
// phase-1 basis repair path is exercised by duplicated rows.
func TestRedundantEqualities(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 2}}
	p.AddConstraint(EQ, 4, map[int]float64{0: 1, 1: 1})
	p.AddConstraint(EQ, 4, map[int]float64{0: 1, 1: 1}) // duplicate row
	p.AddConstraint(EQ, 8, map[int]float64{0: 2, 1: 2}) // scaled duplicate
	s, err := solveCold(NewSolver, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// Optimum: all weight on x (cheaper): x=4, y=0, obj 4.
	if !approx(s.Objective, 4, 1e-6) {
		t.Errorf("objective = %v, want 4", s.Objective)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

func TestSolveBoundedDeadline(t *testing.T) {
	// A deadline in the past must abort promptly with IterLimit.
	rng := rand.New(rand.NewSource(99))
	const n = 30
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = -rng.Float64()
	}
	for r := 0; r < 40; r++ {
		terms := map[int]float64{}
		for j := 0; j < n; j++ {
			terms[j] = rng.Float64()
		}
		p.AddConstraint(LE, 1+rng.Float64()*5, terms)
	}
	solver, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.SolveBounded(nil, nil, time.Now().Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != IterLimit {
		t.Errorf("status = %v, want iteration-limit", s.Status)
	}
	// A zero deadline solves normally.
	s, err = solver.SolveBounded(nil, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Errorf("status = %v, want optimal", s.Status)
	}
}
