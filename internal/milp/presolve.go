package milp

import (
	"fmt"
	"math"

	"sring/internal/lp"
)

// presolveResult captures a problem reduction: variables proven to take a
// fixed value are substituted out, shrinking the LP the branch-and-bound
// solves at every node.
type presolveResult struct {
	// fixed maps original variable -> forced value.
	fixed map[int]float64
	// reduced is the problem over the remaining variables (nil if
	// everything was fixed).
	reduced *Problem
	// oldToNew maps original variable indices to reduced indices (-1 for
	// fixed variables).
	oldToNew []int
	// constant is the objective contribution of the fixed variables.
	constant float64
	// infeasible reports that presolve proved the problem has no solution.
	infeasible bool
}

const presolveTol = 1e-9

// presolve applies iterated bound propagation:
//
//  1. Singleton rows become variable bounds (rounded for integer vars).
//  2. In a <=-row whose unfixed coefficients are all non-negative, any
//     integer variable whose smallest step would already violate the row's
//     slack (given every other variable at its lower bound) is pinned to
//     its lower bound.
//  3. Bounds meeting (lb == ub) fix the variable.
//
// Only integer variables are ever fixed; continuous variables keep their
// ranges (the simplex handles them).
func presolve(p *Problem) presolveResult {
	n := p.LP.NumVars
	lb := make([]float64, n) // all-zero: x >= 0 by the LP convention
	ub := make([]float64, n)
	for i := range ub {
		ub[i] = math.Inf(1)
	}
	fixed := make(map[int]float64)

	tighten := func(i int) bool { // returns false on contradiction
		if p.Integer[i] {
			lb[i] = math.Ceil(lb[i] - presolveTol)
			ub[i] = math.Floor(ub[i] + presolveTol)
		}
		if ub[i] < lb[i]-presolveTol {
			return false
		}
		if _, done := fixed[i]; !done && p.Integer[i] && ub[i]-lb[i] < presolveTol {
			fixed[i] = lb[i]
		}
		return true
	}

	for pass := 0; pass < 20; pass++ {
		changed := false
		before := len(fixed)
		for _, c := range p.LP.Constraints {
			// Singleton rows.
			if len(c.Coeffs) == 1 {
				for v, a := range c.Coeffs {
					if a == 0 {
						continue
					}
					bound := c.RHS / a
					switch {
					case c.Rel == lp.EQ:
						if bound < lb[v]-presolveTol || bound > ub[v]+presolveTol {
							return presolveResult{infeasible: true}
						}
						lb[v] = math.Max(lb[v], bound)
						ub[v] = math.Min(ub[v], bound)
					case (c.Rel == lp.LE && a > 0) || (c.Rel == lp.GE && a < 0):
						if bound < ub[v] {
							ub[v] = bound
							changed = true
						}
					default: // LE with a<0, or GE with a>0: lower bound
						if bound > lb[v] {
							lb[v] = bound
							changed = true
						}
					}
					if !tighten(v) {
						return presolveResult{infeasible: true}
					}
				}
				continue
			}
			// Non-negative LE rows: pin integers that cannot move.
			if c.Rel != lp.LE {
				continue
			}
			allNonNeg := true
			minAct := 0.0
			for v, a := range c.Coeffs {
				if a < 0 {
					allNonNeg = false
					break
				}
				if val, done := fixed[v]; done {
					minAct += a * val
				} else {
					minAct += a * lb[v]
				}
			}
			if !allNonNeg {
				continue
			}
			if minAct > c.RHS+1e-7 {
				return presolveResult{infeasible: true}
			}
			for v, a := range c.Coeffs {
				if a <= 0 || !p.Integer[v] {
					continue
				}
				if _, done := fixed[v]; done {
					continue
				}
				// One integer step up would break the row.
				if minAct+a > c.RHS+1e-7 && ub[v] > lb[v] {
					ub[v] = lb[v]
					if !tighten(v) {
						return presolveResult{infeasible: true}
					}
					changed = true
				}
			}
		}
		if !changed && len(fixed) == before {
			break
		}
	}

	if len(fixed) == 0 {
		return presolveResult{fixed: fixed}
	}
	return buildReduced(p, fixed)
}

// buildReduced substitutes the fixed variables out of the problem.
func buildReduced(p *Problem, fixed map[int]float64) presolveResult {
	n := p.LP.NumVars
	res := presolveResult{fixed: fixed, oldToNew: make([]int, n)}
	next := 0
	for i := 0; i < n; i++ {
		if _, done := fixed[i]; done {
			res.oldToNew[i] = -1
			continue
		}
		res.oldToNew[i] = next
		next++
	}
	if next == 0 {
		// Everything fixed: feasibility of the remaining rows is checked
		// by the caller through checkIncumbent on the expanded vector.
		for v, val := range fixed {
			if p.LP.Objective != nil {
				res.constant += p.LP.Objective[v] * val
			}
		}
		return res
	}
	red := &Problem{
		LP:      lp.Problem{NumVars: next, Objective: make([]float64, next)},
		Integer: make([]bool, next),
	}
	for i := 0; i < n; i++ {
		if j := res.oldToNew[i]; j >= 0 {
			if p.LP.Objective != nil {
				red.LP.Objective[j] = p.LP.Objective[i]
			}
			red.Integer[j] = p.Integer[i]
		} else if p.LP.Objective != nil {
			res.constant += p.LP.Objective[i] * fixed[i]
		}
	}
	for _, c := range p.LP.Constraints {
		terms := make(map[int]float64)
		rhs := c.RHS
		for v, a := range c.Coeffs {
			if val, done := fixed[v]; done {
				rhs -= a * val
			} else {
				terms[res.oldToNew[v]] += a
			}
		}
		if len(terms) == 0 {
			// Constant row: verify it.
			ok := true
			switch c.Rel {
			case lp.LE:
				ok = 0 <= rhs+1e-7
			case lp.GE:
				ok = 0 >= rhs-1e-7
			case lp.EQ:
				ok = math.Abs(rhs) <= 1e-7
			}
			if !ok {
				return presolveResult{infeasible: true}
			}
			continue
		}
		red.LP.Constraints = append(red.LP.Constraints, lp.Constraint{Coeffs: terms, Rel: c.Rel, RHS: rhs})
	}
	res.reduced = red
	return res
}

// expand lifts a reduced solution vector back to the original variable
// space.
func (res presolveResult) expand(x []float64, n int) []float64 {
	full := make([]float64, n)
	for i := 0; i < n; i++ {
		if val, done := res.fixed[i]; done {
			full[i] = val
		} else if x != nil {
			full[i] = x[res.oldToNew[i]]
		}
	}
	return full
}

// shrink projects a full-space vector into the reduced space; it errors if
// the vector disagrees with a fixing (the incumbent would be infeasible).
func (res presolveResult) shrink(x []float64) ([]float64, error) {
	if res.reduced == nil {
		return nil, nil
	}
	out := make([]float64, res.reduced.LP.NumVars)
	for i, v := range x {
		if val, done := res.fixed[i]; done {
			if math.Abs(v-val) > 1e-6 {
				return nil, fmt.Errorf("milp: incumbent sets variable %d to %v, presolve fixed it to %v", i, v, val)
			}
			continue
		}
		out[res.oldToNew[i]] = v
	}
	return out, nil
}
