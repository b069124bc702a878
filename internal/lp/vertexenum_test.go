package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// bruteForceLP finds the optimum of min c.x, rows, lo <= x <= hi by
// enumerating every vertex of the feasible region: all choices of n active
// hyperplanes among the constraint rows (as equalities) and the finite
// variable bounds, solved by Gaussian elimination and filtered for
// feasibility. All lower bounds are finite, so the region is pointed and a
// finite optimum — if one exists — is attained at an enumerated vertex.
// Returns (bestObjective, found); found is false for an infeasible region.
// The caller must keep the instance bounded (the enumerator cannot certify
// unboundedness).
func bruteForceLP(p *Problem, lo, hi []float64) (float64, bool) {
	n := p.NumVars
	type hyper struct {
		a   []float64
		rhs float64
	}
	var planes []hyper
	for _, c := range p.Constraints {
		a := make([]float64, n)
		for v, coeff := range c.Coeffs {
			a[v] = coeff
		}
		planes = append(planes, hyper{a, c.RHS})
	}
	for j := 0; j < n; j++ {
		a := make([]float64, n)
		a[j] = 1
		planes = append(planes, hyper{a, lo[j]})
		if !math.IsInf(hi[j], 1) {
			b := make([]float64, n)
			b[j] = 1
			planes = append(planes, hyper{b, hi[j]})
		}
	}

	feasible := func(x []float64) bool {
		const tol = 1e-6
		for j := 0; j < n; j++ {
			if x[j] < lo[j]-tol || x[j] > hi[j]+tol {
				return false
			}
		}
		for _, c := range p.Constraints {
			var lhs float64
			for v, coeff := range c.Coeffs {
				lhs += coeff * x[v]
			}
			switch c.Rel {
			case LE:
				if lhs > c.RHS+tol {
					return false
				}
			case GE:
				if lhs < c.RHS-tol {
					return false
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > tol {
					return false
				}
			}
		}
		return true
	}

	best, found := math.Inf(1), false
	idx := make([]int, n)
	var rec func(start, k int)
	solveAndCheck := func() {
		// Gaussian elimination with partial pivoting on the n chosen planes.
		A := make([][]float64, n)
		for r := 0; r < n; r++ {
			A[r] = append(append([]float64(nil), planes[idx[r]].a...), planes[idx[r]].rhs)
		}
		for col := 0; col < n; col++ {
			piv, pivAbs := -1, 1e-9
			for r := col; r < n; r++ {
				if abs := math.Abs(A[r][col]); abs > pivAbs {
					piv, pivAbs = r, abs
				}
			}
			if piv < 0 {
				return // singular choice of planes
			}
			A[col], A[piv] = A[piv], A[col]
			f := 1 / A[col][col]
			for j := col; j <= n; j++ {
				A[col][j] *= f
			}
			for r := 0; r < n; r++ {
				if r == col {
					continue
				}
				g := A[r][col]
				if g == 0 {
					continue
				}
				for j := col; j <= n; j++ {
					A[r][j] -= g * A[col][j]
				}
			}
		}
		x := make([]float64, n)
		for r := 0; r < n; r++ {
			x[r] = A[r][n]
		}
		if !feasible(x) {
			return
		}
		found = true
		var obj float64
		for j := 0; j < n; j++ {
			if p.Objective != nil {
				obj += p.Objective[j] * x[j]
			}
		}
		if obj < best {
			best = obj
		}
	}
	rec = func(start, k int) {
		if k == n {
			solveAndCheck()
			return
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

// TestFuzzAgainstVertexEnumeration is the LP property test: random small
// LPs are solved by the FT kernel cold, by the dense oracle with the bounds
// written as rows, and by a warm-started dual re-solve, and every optimum
// is cross-checked against brute-force vertex enumeration.
func TestFuzzAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 400
	if testing.Short() {
		trials = 80
	}
	checked, infeasibles := 0, 0
	for trial := 0; trial < trials; trial++ {
		p, lo, hi := randomBoundedProblem(rng)

		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.SolveBounded(lo, hi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status == Unbounded || sol.Status == IterLimit {
			continue // the enumerator cannot cross-check these
		}
		want, found := bruteForceLP(p, lo, hi)
		switch sol.Status {
		case Optimal:
			if !found {
				t.Fatalf("trial %d: solver found optimum %v, brute force says infeasible\n%+v lo=%v hi=%v",
					trial, sol.Objective, p, lo, hi)
			}
			if !approx(sol.Objective, want, 1e-5) {
				t.Fatalf("trial %d: solver optimum %v, brute force %v\n%+v lo=%v hi=%v",
					trial, sol.Objective, want, p, lo, hi)
			}
			checked++
		case Infeasible:
			if found {
				t.Fatalf("trial %d: solver says infeasible, brute force found vertex with objective %v\n%+v lo=%v hi=%v",
					trial, want, p, lo, hi)
			}
			infeasibles++
			continue
		}

		// The dense oracle with bounds expressed as rows must agree.
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
		if dense.Status != Optimal || !approx(dense.Objective, want, 1e-5) {
			t.Fatalf("trial %d: dense got %v (%v), brute force %v", trial, dense.Objective, dense.Status, want)
		}

		// A warm dual re-solve of the same bounds from the optimal basis
		// must terminate immediately at the same optimum.
		warm, ok, err := s.SolveDual(s.Basis(), lo, hi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok || warm.Status != Optimal || !approx(warm.Objective, want, 1e-5) {
			t.Fatalf("trial %d: identity warm re-solve diverged: ok=%v %+v want %v", trial, ok, warm, want)
		}
	}
	if checked < trials/4 {
		t.Errorf("only %d/%d trials produced a checkable optimum", checked, trials)
	}
	t.Logf("verified %d optima and %d infeasibilities against vertex enumeration", checked, infeasibles)
}

// degenerateProblem builds on randomBoundedProblem and then stresses the
// basis machinery: duplicated rows (primal-degenerate vertices, leaving-row
// ties), scaled copies of rows (rank-deficient row sets the LU ordering
// must pivot around), and sum rows (redundant constraints that put extra
// hyperplanes through existing vertices).
func degenerateProblem(rng *rand.Rand) (*Problem, []float64, []float64) {
	p, lo, hi := randomBoundedProblem(rng)
	base := len(p.Constraints)
	for _, c := range p.Constraints[:base] {
		switch rng.Intn(3) {
		case 0: // exact duplicate
			p.AddConstraint(c.Rel, c.RHS, c.Coeffs)
		case 1: // scaled copy: dependent row, consistent by construction
			f := float64(1 + rng.Intn(3))
			terms := map[int]float64{}
			for v, coeff := range c.Coeffs {
				terms[v] = f * coeff
			}
			p.AddConstraint(c.Rel, f*c.RHS, terms)
		case 2: // sum with another row (LE+LE stays valid; else duplicate)
			other := p.Constraints[rng.Intn(base)]
			if c.Rel == LE && other.Rel == LE {
				terms := map[int]float64{}
				for v, coeff := range c.Coeffs {
					terms[v] = coeff
				}
				for v, coeff := range other.Coeffs {
					terms[v] += coeff
				}
				p.AddConstraint(LE, c.RHS+other.RHS, terms)
			} else {
				p.AddConstraint(c.Rel, c.RHS, c.Coeffs)
			}
		}
	}
	return p, lo, hi
}

// TestFuzzSparseVsDenseKernels cross-checks the Forrest-Tomlin kernel (the
// default) against the dense tableau oracle on random degenerate and
// rank-deficient problems: cold solves must agree on status and optimum at
// several refactorisation cadences (refactorEveryOverride 1 hits a
// refactorisation boundary on every pivot), and warm dual re-solves after a
// bound change must agree too. Only the solution is compared — the dense
// kernel assigns pivot rows differently inside the factorisation, which is
// allowed. The FT kernel may not give up where the oracle finishes: a
// pivot whose update and rescue refactorisation both fail (FTFallbacks)
// would surface here as an IterLimit the dense kernel does not share.
func TestFuzzSparseVsDenseKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 600
	if testing.Short() {
		trials = 120
	}
	agreed, warmChecked, ftUpdates := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		var p *Problem
		var lo, hi []float64
		if trial%2 == 0 {
			p, lo, hi = degenerateProblem(rng)
		} else {
			p, lo, hi = randomBoundedProblem(rng)
		}

		dense, err := NewDenseSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		dsol, err := dense.SolveBounded(lo, hi, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if dsol.Status == IterLimit {
			continue
		}

		// The default cadence and forced refactorisation boundaries (every
		// pivot, every 2nd, every 3rd).
		for _, every := range []int{0, 1, 2, 3} {
			ft, err := NewSolver(p)
			if err != nil {
				t.Fatal(err)
			}
			ft.refactorEveryOverride = every
			fsol, err := ft.SolveBounded(lo, hi, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			ftUpdates += fsol.FTUpdates
			if !fsol.Sparse {
				t.Fatalf("trial %d: FT solution not flagged Sparse", trial)
			}
			if fsol.FTFallbacks != 0 {
				t.Fatalf("trial %d every=%d: %d failed FT rescues\n%+v lo=%v hi=%v",
					trial, every, fsol.FTFallbacks, p, lo, hi)
			}
			if fsol.Status != dsol.Status {
				t.Fatalf("trial %d every=%d: FT status %v, dense %v\n%+v lo=%v hi=%v",
					trial, every, fsol.Status, dsol.Status, p, lo, hi)
			}
			if fsol.Status == Optimal && !approx(fsol.Objective, dsol.Objective, 1e-5) {
				t.Fatalf("trial %d every=%d: FT optimum %v, dense %v\n%+v lo=%v hi=%v",
					trial, every, fsol.Objective, dsol.Objective, p, lo, hi)
			}

			if fsol.Status != Optimal || every != 1 {
				continue
			}
			// Warm dual re-solve cross-check: tighten a random upper bound
			// (the dual-simplex re-entry milp warm starts rely on) from
			// each kernel's own optimal basis.
			j := rng.Intn(p.NumVars)
			hi2 := append([]float64(nil), hi...)
			ub := hi2[j]
			if math.IsInf(ub, 1) {
				ub = 4
			}
			hi2[j] = math.Max(lo[j], ub-1)
			fwarm, fok, err := ft.SolveDual(ft.Basis(), lo, hi2, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			dwarm, dok, err := dense.SolveDual(dense.Basis(), lo, hi2, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if !fok || !dok || fwarm.Status == IterLimit || dwarm.Status == IterLimit {
				continue // warm re-entry declined; cold fallback is the caller's job
			}
			if fwarm.Status != dwarm.Status {
				t.Fatalf("trial %d: warm status ft=%v dense=%v", trial, fwarm.Status, dwarm.Status)
			}
			if fwarm.Status == Optimal && !approx(fwarm.Objective, dwarm.Objective, 1e-5) {
				t.Fatalf("trial %d: warm optima ft=%v dense=%v\n%+v lo=%v hi2=%v",
					trial, fwarm.Objective, dwarm.Objective, p, lo, hi2)
			}
			warmChecked++
		}
		agreed++
	}
	if agreed < trials*3/4 {
		t.Errorf("only %d/%d trials were cross-checked", agreed, trials)
	}
	if warmChecked == 0 {
		t.Error("no trial reached the warm re-solve cross-check")
	}
	if ftUpdates == 0 {
		t.Error("no trial exercised a Forrest-Tomlin update")
	}
	t.Logf("cross-checked %d/%d trials across 4 refactorisation cadences; %d warm re-solves, %d FT updates",
		agreed, trials, warmChecked, ftUpdates)
}
