package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sring/internal/lp"
)

// Graph colouring as a MILP: minimise the number of colours used on graphs
// with known chromatic numbers — the same model family as the wavelength
// assignment.
func TestGraphColouring(t *testing.T) {
	colour := func(n int, edges [][2]int, maxK int) (int, error) {
		// Vars: x[v*maxK+c] = vertex v has colour c; y[c] = colour used.
		nx := n * maxK
		p := &Problem{
			LP:      lp.Problem{NumVars: nx + maxK, Objective: make([]float64, nx+maxK)},
			Integer: make([]bool, nx+maxK),
		}
		for i := range p.Integer {
			p.Integer[i] = true
		}
		for c := 0; c < maxK; c++ {
			p.LP.Objective[nx+c] = 1
		}
		for v := 0; v < n; v++ {
			terms := map[int]float64{}
			for c := 0; c < maxK; c++ {
				terms[v*maxK+c] = 1
			}
			p.LP.AddConstraint(lp.EQ, 1, terms)
		}
		for _, e := range edges {
			for c := 0; c < maxK; c++ {
				p.LP.AddConstraint(lp.LE, 1, map[int]float64{
					e[0]*maxK + c: 1, e[1]*maxK + c: 1,
				})
			}
		}
		for c := 0; c < maxK; c++ {
			for v := 0; v < n; v++ {
				p.LP.AddConstraint(lp.LE, 0, map[int]float64{v*maxK + c: 1, nx + c: -1})
			}
			p.LP.AddConstraint(lp.LE, 1, map[int]float64{nx + c: 1})
		}
		// Symmetry breaking.
		for c := 0; c+1 < maxK; c++ {
			p.LP.AddConstraint(lp.LE, 0, map[int]float64{nx + c + 1: 1, nx + c: -1})
		}
		res, err := Solve(p, Options{})
		if err != nil {
			return 0, err
		}
		if res.Status != Optimal {
			t.Fatalf("colouring status %v", res.Status)
		}
		return int(math.Round(res.Objective)), nil
	}

	// Triangle: chromatic number 3.
	if k, err := colour(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 3); err != nil || k != 3 {
		t.Errorf("triangle coloured with %d (err %v), want 3", k, err)
	}
	// 5-cycle: chromatic number 3.
	if k, err := colour(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, 3); err != nil || k != 3 {
		t.Errorf("C5 coloured with %d (err %v), want 3", k, err)
	}
	// Path: chromatic number 2.
	if k, err := colour(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 3); err != nil || k != 2 {
		t.Errorf("path coloured with %d (err %v), want 2", k, err)
	}
	// Bipartite K2,3: chromatic number 2.
	if k, err := colour(5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}}, 3); err != nil || k != 2 {
		t.Errorf("K2,3 coloured with %d (err %v), want 2", k, err)
	}
}

// The MILP optimum is never better than its LP relaxation's.
func TestRelaxationBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		p := &Problem{
			LP:      lp.Problem{NumVars: n, Objective: make([]float64, n)},
			Integer: make([]bool, n),
		}
		for j := 0; j < n; j++ {
			p.LP.Objective[j] = math.Round(rng.Float64()*10 - 5)
			p.Integer[j] = true
			p.LP.AddConstraint(lp.LE, 1, map[int]float64{j: 1})
		}
		terms := map[int]float64{}
		for j := 0; j < n; j++ {
			terms[j] = 1 + math.Round(rng.Float64()*3)
		}
		p.LP.AddConstraint(lp.LE, math.Round(rng.Float64()*float64(2*n))+1, terms)

		ls, err := lp.NewSolver(&p.LP)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		relax, err := ls.SolveBounded(nil, nil, time.Time{})
		if err != nil || relax.Status != lp.Optimal {
			t.Fatalf("trial %d: relaxation failed: %v", trial, err)
		}
		res, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		if res.Objective < relax.Objective-1e-6 {
			t.Errorf("trial %d: MILP %v beat its relaxation %v", trial, res.Objective, relax.Objective)
		}
		if res.Bound > res.Objective+1e-6 {
			t.Errorf("trial %d: reported bound %v above objective %v", trial, res.Bound, res.Objective)
		}
	}
}

// Equality-constrained integer program: magic-square-like row/column sums.
func TestIntegerEqualities(t *testing.T) {
	// 2x2 matrix of integers in [0,3], all row/col sums equal 3, minimise
	// the top-left cell. Optimum: x00 = 0 (e.g. [[0,3],[3,0]]).
	p := &Problem{
		LP:      lp.Problem{NumVars: 4, Objective: []float64{1, 0, 0, 0}},
		Integer: []bool{true, true, true, true},
	}
	for j := 0; j < 4; j++ {
		p.LP.AddConstraint(lp.LE, 3, map[int]float64{j: 1})
	}
	p.LP.AddConstraint(lp.EQ, 3, map[int]float64{0: 1, 1: 1}) // row 0
	p.LP.AddConstraint(lp.EQ, 3, map[int]float64{2: 1, 3: 1}) // row 1
	p.LP.AddConstraint(lp.EQ, 3, map[int]float64{0: 1, 2: 1}) // col 0
	p.LP.AddConstraint(lp.EQ, 3, map[int]float64{1: 1, 3: 1}) // col 1
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal 0", res.Status, res.Objective)
	}
}

// When every LP relaxation is cut off (microscopic time limit) and no
// incumbent exists, the solver must report Unknown — never Optimal with a
// nil solution.
func TestUnresolvedWithoutIncumbentIsUnknown(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 40
	p := &Problem{
		LP:      lp.Problem{NumVars: n, Objective: make([]float64, n)},
		Integer: make([]bool, n),
	}
	for j := 0; j < n; j++ {
		p.Integer[j] = true
		p.LP.Objective[j] = -1 - rng.Float64()
		p.LP.AddConstraint(lp.LE, 1, map[int]float64{j: 1})
	}
	for r := 0; r < 30; r++ {
		terms := map[int]float64{}
		for j := 0; j < n; j++ {
			terms[j] = 0.5 + rng.Float64()
		}
		p.LP.AddConstraint(lp.LE, 2+rng.Float64()*3, terms)
	}
	res, err := Solve(p, Options{TimeLimit: time.Nanosecond, DisablePresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal && res.X == nil {
		t.Fatal("Optimal status with nil solution")
	}
	if res.Status != Unknown && res.X == nil {
		t.Fatalf("status %v with nil X, want unknown", res.Status)
	}
}
