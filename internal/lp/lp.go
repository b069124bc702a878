// Package lp implements a linear-programming solver: minimisation of a
// linear objective over linear constraints and variable bounds, solved by a
// bounded primal/dual revised simplex (bounded.go) on one sparse kernel —
// an LU factorisation of the basis kept current by Forrest-Tomlin updates
// (sparse.go, forrest_tomlin.go). A dense full-tableau kernel shares every
// pivot rule and stays as the cross-checking oracle.
//
// It is the LP substrate underneath the branch-and-bound MILP solver in
// sring/internal/milp, replacing the commercial solver (Gurobi) used by the
// SRing paper. Problems at WRONoC-benchmark scale (hundreds to a few
// thousand variables and rows) solve in milliseconds to seconds.
//
// Pivoting uses Dantzig pricing with ratio-test tie-breaks; if the
// iteration count suggests cycling the solver switches to Bland's rule,
// which guarantees termination.
package lp

import (
	"errors"
	"fmt"

	"sring/internal/obs"
)

// Rel is the relation of a constraint row.
type Rel int

const (
	// LE is "<=".
	LE Rel = iota
	// GE is ">=".
	GE
	// EQ is "=".
	EQ
)

// String returns the relation symbol.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Constraint is a sparse linear constraint sum(Coeffs[i]*x[i]) Rel RHS.
type Constraint struct {
	Coeffs map[int]float64
	Rel    Rel
	RHS    float64
}

// Problem is an LP in the form
//
//	minimise  c . x
//	subject to constraints, x >= 0.
//
// Maximisation is expressed by negating the objective.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; nil means all-zero
	Constraints []Constraint
}

// AddConstraint appends a constraint built from (variable, coefficient)
// pairs and returns its row index.
func (p *Problem) AddConstraint(rel Rel, rhs float64, terms map[int]float64) int {
	cp := make(map[int]float64, len(terms))
	for v, c := range terms {
		if c != 0 {
			cp[v] = c
		}
	}
	p.Constraints = append(p.Constraints, Constraint{Coeffs: cp, Rel: rel, RHS: rhs})
	return len(p.Constraints) - 1
}

// validateRow checks one constraint against a structural width of nVars:
// every variable index in range and a known relation. It is the single
// per-row check behind both Problem.Validate and Solver.ReplaceRows.
func validateRow(c *Constraint, nVars int) error {
	for v := range c.Coeffs {
		if v < 0 || v >= nVars {
			return fmt.Errorf("references variable %d, want [0,%d)", v, nVars)
		}
	}
	if c.Rel != LE && c.Rel != GE && c.Rel != EQ {
		return fmt.Errorf("has unknown relation %v", c.Rel)
	}
	return nil
}

// Validate checks dimensions, variable indices and row relations.
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return errors.New("lp: problem has no variables")
	}
	if p.Objective != nil && len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.Objective), p.NumVars)
	}
	for i := range p.Constraints {
		if err := validateRow(&p.Constraints[i], p.NumVars); err != nil {
			return fmt.Errorf("lp: constraint %d %w", i, err)
		}
	}
	return nil
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no solution.
	Infeasible
	// Unbounded: the objective is unbounded below.
	Unbounded
	// IterLimit: the solve stopped before convergence — the iteration
	// limit, the deadline or an interrupt, or a basis exchange the kernel
	// could not represent.
	IterLimit
)

// String returns the status label.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (length NumVars), valid when Optimal
	Objective float64   // c . X, valid when Optimal
	// Phase1Pivots and Phase2Pivots count the simplex pivots performed in
	// each phase; BlandPivots counts how many of them ran under Bland's
	// anti-cycling rule. Always populated, whatever the Status. For a cold
	// solve, Phase1Pivots counts the dual pivots of the feasibility phase.
	Phase1Pivots int
	Phase2Pivots int
	BlandPivots  int
	// DualPivots counts dual-simplex pivots of a warm-started solve
	// (Solver.SolveDual); Phase2Pivots then counts its primal clean-up
	// pivots.
	DualPivots int
	// WarmStarted marks a solution produced by Solver.SolveDual from a
	// basis snapshot.
	WarmStarted bool
	// WarmFallback marks a cold solution obtained after a warm start was
	// attempted and failed (singular basis or iteration trouble); set by
	// callers that implement the fallback, for telemetry attribution.
	WarmFallback bool
	// Sparse marks a solution produced by the sparse Forrest-Tomlin
	// kernel; the Sparse* and FT* fields below are populated only then.
	// They are deterministic per solve (refactorisation points are pivot
	// counts and the factorisation is a pure function of matrix and basis),
	// so accumulating them at consumption time matches a sequential run
	// bit-for-bit even when solves ran speculatively.
	Sparse bool
	// SparseNNZ is the pristine constraint-matrix nonzero count.
	SparseNNZ int
	// SparseRefactorizations counts basis factorisation installs during the
	// solve (warm-start refactorisations — memoised or freshly built — plus
	// mid-solve rebuilds).
	SparseRefactorizations int
	// SparseFillIn totals, over the solve's factorisations, the factor
	// nonzeros beyond the basic columns' own pristine nonzeros.
	SparseFillIn int
	// SparseAccuracyFailures counts mid-solve refactorisations whose
	// recomputed basic values disagreed with the incrementally maintained
	// ones beyond tolerance — a nonzero count flags numerical drift.
	SparseAccuracyFailures int
	// SparseSingularRefactors counts mid-solve refactorisations whose
	// pinned-row elimination went singular; the rebuild then relabels the
	// rows through free-pivot elimination.
	SparseSingularRefactors int
	// FTUpdates counts successful Forrest-Tomlin basis updates.
	FTUpdates int
	// FTSpikeNNZ totals the off-diagonal spike-column nonzeros the FT
	// updates inserted into the U file.
	FTSpikeNNZ int
	// FTFallbacks counts pivots whose FT update was rejected and whose
	// rescue refactorisation went singular even under free pivoting; the
	// pivot loop then stops the solve with IterLimit (not a deadline), so
	// callers treat it as unresolved.
	FTFallbacks int
}

const (
	eps = 1e-9
	// blandTriggerFactor scales the iteration count after which the solver
	// switches from Dantzig pricing to Bland's rule to escape potential
	// cycling.
	blandTriggerFactor = 4
)

// Kernel telemetry in the process registry. These metrics have no span:
// they record every solve and refactorisation a Solver runs, speculative
// ones included, so they are registry-only and never appear in a trace.
// The per-run lp.* counters are AccumulateStats's.
var (
	solveH    = obs.Default().Histogram("lp.solve.ns")           // wall time per completed solve
	pivotsH   = obs.Default().Histogram("lp.solve.pivots")       // total pivots per solve
	refactorH = obs.Default().Histogram("lp.sparse.refactor.ns") // per LU refactorisation, ordering included
	ftSpikeH  = obs.Default().Histogram("lp.ft.spike.nnz")       // spike size per FT update

	rowsAppendedC = obs.Default().Counter("lp.rows.appended")

	// Refactorisations by cause, lp.sparse.refactor.*: the FT fill and
	// cadence triggers, rejected FT updates, warm-start bases eliminated
	// afresh, and warm-start factors found memoised on the Basis.
	refactorFillC      = obs.Default().Counter("lp.sparse.refactor.fill")
	refactorCadenceC   = obs.Default().Counter("lp.sparse.refactor.cadence")
	refactorRejectedC  = obs.Default().Counter("lp.sparse.refactor.rejected")
	refactorWarmBuiltC = obs.Default().Counter("lp.sparse.refactor.warm_built")
	refactorWarmMemoC  = obs.Default().Counter("lp.sparse.refactor.warm_memo")
)

// AccumulateStats counts a solution's pivot statistics through sp into the
// lp.* counters. Callers that solve speculatively (the parallel
// branch-and-bound worker pool) defer it to the moment a solution is
// actually consumed, keeping the counts identical to a sequential run. A
// nil solution is a no-op.
func AccumulateStats(sp *obs.Span, sol *Solution) {
	if sol == nil {
		return
	}
	sp.Count("lp.solves", 1)
	sp.Count("lp.pivots.phase1", int64(sol.Phase1Pivots))
	sp.Count("lp.pivots.phase2", int64(sol.Phase2Pivots))
	if sol.BlandPivots > 0 {
		sp.Count("lp.bland_pivots", int64(sol.BlandPivots))
		sp.Count("lp.bland_activations", 1)
	}
	if sol.WarmStarted {
		sp.Count("lp.warmstart.solves", 1)
		sp.Count("lp.pivots.dual", int64(sol.DualPivots))
	}
	if sol.WarmFallback {
		sp.Count("lp.warmstart.fallbacks", 1)
	}
	if sol.Sparse {
		sp.Count("lp.sparse.solves", 1)
		sp.Count("lp.sparse.nnz", int64(sol.SparseNNZ))
		sp.Count("lp.sparse.refactorizations", int64(sol.SparseRefactorizations))
		sp.Count("lp.sparse.fill_in", int64(sol.SparseFillIn))
		if sol.SparseAccuracyFailures > 0 {
			sp.Count("lp.sparse.accuracy_failures", int64(sol.SparseAccuracyFailures))
		}
		if sol.SparseSingularRefactors > 0 {
			sp.Count("lp.sparse.singular_refactors", int64(sol.SparseSingularRefactors))
		}
		if sol.FTUpdates > 0 {
			sp.Count("lp.ft.updates", int64(sol.FTUpdates))
			sp.Count("lp.ft.spike_nnz", int64(sol.FTSpikeNNZ))
		}
		if sol.FTFallbacks > 0 {
			sp.Count("lp.ft.fallbacks", int64(sol.FTFallbacks))
		}
	}
}
