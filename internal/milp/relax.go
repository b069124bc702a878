package milp

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"sring/internal/lp"
	"sring/internal/obs"
)

// prepped is the branch-and-bound's working form of the relaxation: the
// constraint rows with singleton/empty/duplicate rows stripped, plus the
// root variable bounds those rows implied. Variable indices are unchanged,
// so solution vectors, branching and incumbent checks all stay in the
// original space.
type prepped struct {
	p      *Problem  // rows reduced; variables and objective untouched
	lo, hi []float64 // root bounds (lo starts at 0 by the LP convention)
}

// prepRelaxation converts the problem into bounded-variable form:
//
//  1. Singleton rows become variable bounds (integer-rounded for integer
//     variables) and are dropped — the bounded simplex enforces bounds for
//     free, so every such row removed shrinks the tableau at every node.
//  2. Empty rows are checked for consistency and dropped.
//  3. Rows with identical coefficients and relation are deduplicated,
//     keeping the tightest right-hand side.
//
// Returns nil when the bounds alone prove infeasibility. The reduction is
// deterministic: rows are scanned in order and survivors keep their order.
func prepRelaxation(p *Problem, sp *obs.Span) *prepped {
	n := p.LP.NumVars
	pr := &prepped{
		lo: make([]float64, n),
		hi: make([]float64, n),
	}
	for i := range pr.hi {
		pr.hi[i] = math.Inf(1)
	}
	rows := make([]lp.Constraint, 0, len(p.LP.Constraints))
	var removedRows, boundRows int64
	seen := make(map[string]int) // canonical row key -> index in rows
	for _, c := range p.LP.Constraints {
		if len(c.Coeffs) == 0 {
			ok := true
			switch c.Rel {
			case lp.LE:
				ok = 0 <= c.RHS+1e-9
			case lp.GE:
				ok = 0 >= c.RHS-1e-9
			case lp.EQ:
				ok = math.Abs(c.RHS) <= 1e-9
			}
			if !ok {
				return nil
			}
			removedRows++
			continue
		}
		if len(c.Coeffs) == 1 {
			var v int
			var a float64
			for v, a = range c.Coeffs {
			}
			if a == 0 {
				// Degenerate 0*x REL rhs row: same as an empty row.
				ok := true
				switch c.Rel {
				case lp.LE:
					ok = 0 <= c.RHS+1e-9
				case lp.GE:
					ok = 0 >= c.RHS-1e-9
				case lp.EQ:
					ok = math.Abs(c.RHS) <= 1e-9
				}
				if !ok {
					return nil
				}
				removedRows++
				continue
			}
			bound := c.RHS / a
			lower := c.Rel == lp.EQ || (c.Rel == lp.GE && a > 0) || (c.Rel == lp.LE && a < 0)
			upper := c.Rel == lp.EQ || (c.Rel == lp.LE && a > 0) || (c.Rel == lp.GE && a < 0)
			if lower {
				if p.Integer[v] {
					bound = math.Ceil(bound - presolveTol)
				}
				if bound > pr.lo[v] {
					pr.lo[v] = bound
				}
			}
			if upper {
				b := bound
				if p.Integer[v] {
					b = math.Floor(c.RHS/a + presolveTol)
				}
				if b < pr.hi[v] {
					pr.hi[v] = b
				}
			}
			if pr.hi[v] < pr.lo[v]-presolveTol {
				return nil
			}
			removedRows++
			boundRows++
			continue
		}
		key := rowKey(&c)
		if j, dup := seen[key]; dup {
			prev := &rows[j]
			switch c.Rel {
			case lp.LE:
				if c.RHS < prev.RHS {
					prev.RHS = c.RHS
				}
			case lp.GE:
				if c.RHS > prev.RHS {
					prev.RHS = c.RHS
				}
			case lp.EQ:
				if math.Abs(c.RHS-prev.RHS) > 1e-9 {
					return nil
				}
			}
			removedRows++
			continue
		}
		seen[key] = len(rows)
		rows = append(rows, c)
	}
	sp.Count("milp.presolve.rows_removed", removedRows)
	sp.Count("milp.presolve.bound_rows", boundRows)
	pr.p = &Problem{
		LP: lp.Problem{
			NumVars:     n,
			Objective:   p.LP.Objective,
			Constraints: rows,
		},
		Integer: p.Integer,
	}
	return pr
}

// rowKey canonicalises a constraint's coefficient pattern and relation so
// duplicate rows can be merged.
func rowKey(c *lp.Constraint) string {
	vars := make([]int, 0, len(c.Coeffs))
	for v := range c.Coeffs {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	var b strings.Builder
	b.WriteByte(byte('0' + int(c.Rel)))
	for _, v := range vars {
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(c.Coeffs[v], 'g', -1, 64))
	}
	return b.String()
}

// relaxSolver evaluates node relaxations against a persistent bounded
// simplex. The tableau, basis arrays and the lo/hi scratch below are reused
// across every solve the owner performs, so steady-state node evaluation
// allocates only the Solution it returns.
//
// The solve itself is a pure function of (prepped problem, node, deadline):
// a node carrying a parent basis is re-solved by canonical refactorisation +
// dual simplex, and the refactorisation depends only on the basis *set*, not
// on which worker's tableau last held it. That keeps the speculative
// parallel search bit-identical to the sequential one (see prefetcher).
type relaxSolver struct {
	pp     *prepped
	s      *lp.Solver
	lo, hi []float64 // per-solve scratch bounds
	// cuts is the cut list currently installed as appended rows past the
	// prepped constraints. Node cut lists are immutable and shared between
	// siblings, so the pointer comparison in configure makes consecutive
	// same-subtree solves (sibling affinity on the steal pool) skip the
	// row rebuild entirely. rows is configure's reused row scratch (the
	// solver copies the slice, never the Coeffs maps it shares with the
	// cuts).
	cuts []*cut
	rows []lp.Constraint
}

// newRelaxSolver builds a solver arena for pp. interrupt, when non-nil
// (typically a context's Done channel), is polled inside the LP pivot
// loops so a cancellation stops even a single long relaxation promptly.
func newRelaxSolver(pp *prepped, interrupt <-chan struct{}) (*relaxSolver, error) {
	s, err := lp.NewSolver(&pp.p.LP)
	if err != nil {
		return nil, err
	}
	s.SetInterrupt(interrupt)
	return &relaxSolver{
		pp: pp,
		s:  s,
		lo: make([]float64, len(pp.lo)),
		hi: make([]float64, len(pp.hi)),
	}, nil
}

// configure installs a node's cut rows past the prepped constraints,
// replacing whatever list was installed in one rebuild. A no-op when the
// list is already installed (node cut lists are immutable, so an
// element-wise pointer comparison is exact).
func (rs *relaxSolver) configure(cuts []*cut) error {
	if cutListEq(rs.cuts, cuts) {
		return nil
	}
	rows := rs.rows[:0]
	for _, c := range cuts {
		rows = append(rows, c.row())
	}
	rs.rows = rows
	if err := rs.s.ReplaceRows(rs.s.BaseRows(), rows); err != nil {
		return err
	}
	rs.cuts = cuts
	return nil
}

// solve evaluates the node's LP relaxation. When the node carries a parent
// basis the dual simplex re-solves it warm (bound tightenings keep the
// parent's optimal basis dual-feasible), falling back to a cold solve if the
// basis cannot be refactorised against the new bounds; the fallback is
// marked on the Solution for telemetry. The returned basis is the optimal
// basis for warm-starting the node's children, nil unless Status==Optimal.
//
// The node's cut rows are installed first: nd.basis was taken from an LP
// with exactly nd.cuts appended, so the warm start remains shape-exact.
// The rebuild-and-refactorise on a cut-list switch is the same order of
// work as the periodic refactorisation a solve performs anyway.
func (rs *relaxSolver) solve(nd *node, deadline time.Time) (*lp.Solution, *lp.Basis, error) {
	if err := rs.configure(nd.cuts); err != nil {
		return nil, nil, err
	}
	rs.setBounds(nd)
	var sol *lp.Solution
	var err error
	fellBack := false
	if nd.basis != nil {
		var ok bool
		sol, ok, err = rs.s.SolveDual(nd.basis, rs.lo, rs.hi, deadline)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			sol, fellBack = nil, true
		}
	}
	if sol == nil {
		sol, err = rs.s.SolveBounded(rs.lo, rs.hi, deadline)
		if err != nil {
			return nil, nil, err
		}
		sol.WarmFallback = fellBack
	}
	var bas *lp.Basis
	if sol.Status == lp.Optimal {
		bas = rs.s.Basis()
	}
	return sol, bas, nil
}

// setBounds loads the node's variable bounds (root bounds tightened by the
// node's branching history) into the solver's working arrays.
func (rs *relaxSolver) setBounds(nd *node) {
	copy(rs.lo, rs.pp.lo)
	copy(rs.hi, rs.pp.hi)
	for v, l := range nd.lower {
		if l > rs.lo[v] {
			rs.lo[v] = l
		}
	}
	for v, h := range nd.upper {
		if h < rs.hi[v] {
			rs.hi[v] = h
		}
	}
}

// diveHeuristic is the root primal heuristic: starting from the root
// relaxation it repeatedly rounds the most fractional integer variable to
// its nearest integer, pins it with a bound, and re-solves warm. A dive
// either reaches an integral, feasible point — returned with its objective —
// or dies on an infeasible/fractional dead end. It runs on the main
// goroutine only and is fully deterministic, so sequential and parallel
// searches see the same incumbent seed.
func diveHeuristic(pp *prepped, rs *relaxSolver, prio []int, root *lp.Solution, rootBasis *lp.Basis, cuts []*cut, deadline time.Time, sp *obs.Span) ([]float64, float64, bool) {
	sp.Count("milp.heuristic.dives", 1)
	p := pp.p
	nd := &node{
		lower: map[int]float64{},
		upper: map[int]float64{},
		basis: rootBasis,
		cuts:  cuts, // the dive warm-starts from the post-cut root basis
	}
	sol := root
	for depth := 0; depth < 4*p.LP.NumVars+8; depth++ {
		frac := mostFractional(p, prio, sol.X)
		if frac < 0 {
			x := append([]float64(nil), sol.X...)
			var obj float64
			for i, isInt := range p.Integer {
				if isInt {
					x[i] = math.Round(x[i])
				}
				if p.LP.Objective != nil {
					obj += p.LP.Objective[i] * x[i]
				}
			}
			// Re-verify against the *original* rows: rounding within intTol
			// cannot break them beyond the incumbent tolerance, but stay
			// defensive.
			if _, err := checkIncumbent(p, x); err != nil {
				return nil, 0, false
			}
			sp.Count("milp.heuristic.found", 1)
			return x, obj, true
		}
		v := sol.X[frac]
		r := math.Round(v)
		nd.lower[frac] = r
		nd.upper[frac] = r
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, 0, false
		}
		next, bas, err := rs.solve(nd, deadline)
		if err != nil || next.Status != lp.Optimal {
			return nil, 0, false
		}
		lp.AccumulateStats(sp, next)
		sol, nd.basis = next, bas
	}
	return nil, 0, false
}
