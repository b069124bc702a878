package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sring/internal/obs"
)

// The cut-append workflow end to end: solve, append a violated row, extend
// the basis, re-enter dual, and come out at the new optimum warm.
func TestAppendRowsWarmReentry(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*Problem) (*Solver, error)
	}{
		{"ft", NewSolver},
		{"dense", NewDenseSolver},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// max x0+x1 s.t. x0<=3, x1<=3, x0+x1<=5 -> (3,2) or (2,3); the
			// simplex lands on a vertex with objective -5.
			p := &Problem{NumVars: 2, Objective: []float64{-1, -1}}
			p.AddConstraint(LE, 3, map[int]float64{0: 1})
			p.AddConstraint(LE, 3, map[int]float64{1: 1})
			p.AddConstraint(LE, 5, map[int]float64{0: 1, 1: 1})
			s, err := tc.mk(p)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.SolveBounded(nil, nil, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal || !approx(sol.Objective, -5, 1e-9) {
				t.Fatalf("base solve: status %v obj %v", sol.Status, sol.Objective)
			}
			bas := s.Basis()

			// A cut violated at the optimum: x0+2*x1 <= 6.
			if err := s.ReplaceRows(3, []Constraint{
				{Coeffs: map[int]float64{0: 1, 1: 2}, Rel: LE, RHS: 6},
			}); err != nil {
				t.Fatal(err)
			}
			if s.NumRows() != 4 || s.BaseRows() != 3 {
				t.Fatalf("rows = %d base %d, want 4/3", s.NumRows(), s.BaseRows())
			}
			ext := s.ExtendBasis(bas)
			if ext == nil {
				t.Fatal("ExtendBasis returned nil")
			}
			sol2, ok, err := s.SolveDual(ext, nil, nil, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if !ok || sol2.Status != Optimal {
				t.Fatalf("warm re-entry failed: ok=%v status=%v", ok, sol2.Status)
			}
			// New optimum: x0=3, x1<=min(3, 5-3=2, (6-3)/2=1.5) -> (3, 1.5).
			if !approx(sol2.Objective, -4.5, 1e-9) {
				t.Fatalf("cut objective = %v, want -4.5", sol2.Objective)
			}
			if !sol2.WarmStarted {
				t.Fatal("re-entry was not warm")
			}
			// Cross-check against a cold solve of the augmented problem.
			cold, err := s.SolveBounded(nil, nil, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if !approx(cold.Objective, sol2.Objective, 1e-9) {
				t.Fatalf("cold %v != warm %v", cold.Objective, sol2.Objective)
			}

			// Truncating restores the original optimum.
			if err := s.ReplaceRows(3, nil); err != nil {
				t.Fatal(err)
			}
			sol3, err := s.SolveBounded(nil, nil, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if !approx(sol3.Objective, -5, 1e-9) {
				t.Fatalf("post-truncate objective = %v, want -5", sol3.Objective)
			}
		})
	}
}

func TestAppendRowsValidationAndCounter(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint(GE, 1, map[int]float64{0: 1, 1: 1})
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snapshot()
	if err := s.ReplaceRows(1, []Constraint{{Coeffs: map[int]float64{7: 1}, Rel: LE, RHS: 1}}); err == nil {
		t.Fatal("out-of-range variable accepted")
	}
	if err := s.ReplaceRows(0, nil); err == nil {
		t.Fatal("ReplaceRows below BaseRows accepted")
	}
	if err := s.ReplaceRows(2, nil); err == nil {
		t.Fatal("ReplaceRows past the last row accepted")
	}
	if err := s.ReplaceRows(1, []Constraint{
		{Coeffs: map[int]float64{0: 1}, Rel: LE, RHS: 10},
		{Coeffs: map[int]float64{1: 1}, Rel: LE, RHS: 10},
	}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Snapshot().Sub(before).Counters["lp.rows.appended"]; got != 2 {
		t.Fatalf("lp.rows.appended = %d, want 2", got)
	}
}

// TableauRow must reproduce B^-1 [A I]: basic columns read as unit vectors
// and the identity B^-1 B = I holds row by row.
func TestTableauRowIdentity(t *testing.T) {
	p := &Problem{NumVars: 3, Objective: []float64{-2, -3, -1}}
	p.AddConstraint(LE, 10, map[int]float64{0: 1, 1: 2, 2: 1})
	p.AddConstraint(LE, 8, map[int]float64{0: 2, 1: 1})
	p.AddConstraint(GE, 1, map[int]float64{2: 1})
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.SolveBounded(nil, nil, time.Time{})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	m := s.NumRows()
	nCols := s.NumVars() + m
	for i := 0; i < m; i++ {
		row := append([]float64(nil), s.TableauRow(i)...)
		if len(row) != nCols {
			t.Fatalf("row %d has %d columns, want %d", i, len(row), nCols)
		}
		for r := 0; r < m; r++ {
			want := 0.0
			if r == i {
				want = 1
			}
			if got := row[s.BasicVar(r)]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("row %d, basic col of row %d: %v, want %v", i, r, got, want)
			}
		}
	}
}

// ReplaceRows rebuilds the solve state into the previous shape's buffers.
// Cycling one solver through row sets that grow and shrink, each solve —
// cold, and warm from a fresh copy of a basis — must match a solver built
// fresh on the same rows field for field: values, pivots, factorisations.
// A short refactorisation interval runs the mid-solve factor arenas too.
func TestReplaceRowsMatchesFreshSolver(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(5))
	randRow := func(rel Rel) Constraint {
		c := Constraint{Coeffs: map[int]float64{}, Rel: rel}
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				c.Coeffs[j] = float64(1 + rng.Intn(5))
			}
		}
		c.Coeffs[rng.Intn(n)] = 1 // never empty
		switch rel {
		case LE:
			c.RHS = float64(5 + rng.Intn(15))
		default:
			c.RHS = float64(1 + rng.Intn(4))
		}
		return c
	}
	base := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range base.Objective {
		base.Objective[j] = float64(rng.Intn(9) - 6)
	}
	for i := 0; i < 6; i++ {
		base.Constraints = append(base.Constraints, randRow([]Rel{LE, GE}[i%2]))
	}
	lo, hi := make([]float64, n), make([]float64, n)
	for j := range hi {
		hi[j] = 4
	}
	s, err := NewSolver(base)
	if err != nil {
		t.Fatal(err)
	}
	s.refactorEveryOverride = 2
	for _, k := range []int{3, 1, 5, 0, 2, 6} {
		rows := make([]Constraint, k)
		for i := range rows {
			rows[i] = randRow(LE)
		}
		if err := s.ReplaceRows(s.BaseRows(), rows); err != nil {
			t.Fatal(err)
		}
		p := &Problem{NumVars: n, Objective: base.Objective, Constraints: append(append([]Constraint(nil), base.Constraints...), rows...)}
		fresh, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh.refactorEveryOverride = 2
		got, err := s.SolveBounded(lo, hi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SolveBounded(lo, hi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d cut rows, cold: reshaped solver %+v, fresh %+v", k, got, want)
		}
		if want.Status != Optimal {
			continue
		}
		bas := fresh.Basis()
		hi2 := append([]float64(nil), hi...)
		hi2[rng.Intn(n)] = 1
		got, okGot, err := s.SolveDual(&Basis{Basic: bas.Basic, AtUpper: bas.AtUpper}, lo, hi2, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		want, okWant, err := fresh.SolveDual(&Basis{Basic: bas.Basic, AtUpper: bas.AtUpper}, lo, hi2, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if okGot != okWant || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d cut rows, warm: reshaped solver %v %+v, fresh %v %+v", k, okGot, got, okWant, want)
		}
	}
}
