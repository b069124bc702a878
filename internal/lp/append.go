package lp

// Row mutation and tableau extraction: the API the branch-and-cut layer in
// internal/milp is built on.
//
// A cutting plane is a row appended to an already-solved problem
// (ReplaceRows). The append keeps every existing column index stable —
// the slack of row i is column nStruct+i, so new slacks take the columns
// past the old ones — and the prior optimal basis, extended with the new
// slacks basic, remains a valid (dual-feasible, primal-violated exactly on
// the new rows) starting point: SolveDual re-enters from it and drives the
// cut slacks feasible in a handful of pivots instead of re-solving cold. Rebuilding the kernel
// costs one CSR/CSC pass into the buffers of the previous shape plus the
// refactorisation the changed matrix signature forces anyway — the same
// order as a single periodic refactorisation.
//
// The tableau accessors below read the simplex state left by the most
// recent solve; the Gomory separator derives its cuts from TableauRow
// (sparse BTRAN against the current Forrest-Tomlin factors) plus the basis
// heading and bound-status accessors.

import "fmt"

// ReplaceRows keeps the first keep rows, drops the rest and appends rows,
// rebuilding the solve state once: a branch-and-cut node switching cut
// lists truncates to the construction-time rows and appends its own cuts
// in one call. keep may not cut into the construction-time rows
// (keep >= BaseRows) — the solver owns appended rows only. Kept rows'
// column indices are unchanged (row i's slack stays column nStruct+i);
// the new rows' slacks occupy the columns past them. Any Basis snapshot
// taken before the call is shape-stale — extend it with ExtendBasis
// before warm-starting from it when only rows were appended. The rows are
// copied shallowly; callers must not mutate their Coeffs maps afterwards.
func (s *Solver) ReplaceRows(keep int, rows []Constraint) error {
	if keep < s.baseRows || keep > len(s.cons) {
		return fmt.Errorf("lp: ReplaceRows keeps %d rows, outside [%d,%d]", keep, s.baseRows, len(s.cons))
	}
	for i := range rows {
		if err := validateRow(&rows[i], s.nStruct); err != nil {
			return fmt.Errorf("lp: appended row %d %w", i, err)
		}
	}
	if keep == len(s.cons) && len(rows) == 0 {
		return nil
	}
	s.cons = append(s.cons[:keep], rows...)
	s.shapeRows()
	s.k.reshape()
	rowsAppendedC.Add(int64(len(rows)))
	return nil
}

// NumRows returns the current constraint count (construction rows plus
// appends); BaseRows the construction-time count.
func (s *Solver) NumRows() int  { return s.m }
func (s *Solver) BaseRows() int { return s.baseRows }

// Row returns the i-th constraint as currently installed. The returned
// Constraint shares its Coeffs map with the solver; treat it as read-only.
func (s *Solver) Row(i int) Constraint { return s.cons[i] }

// ExtendBasis returns a copy of bas reshaped for the solver's current row
// count: rows appended after the snapshot was taken get their slack
// columns entered basic (at-lower status is irrelevant for a basic
// column). Appending rows never renumbers existing columns, so the old
// heading carries over verbatim; the extended basis is nonsingular
// whenever bas was, because the new rows' slack columns extend the basis
// matrix by a triangular block. Returns nil when bas does not match the
// pre-append shape of this solver.
func (s *Solver) ExtendBasis(bas *Basis) *Basis {
	oldM := len(bas.Basic)
	if oldM > s.m || len(bas.AtUpper) != s.nStruct+oldM {
		return nil
	}
	ext := &Basis{
		Basic:   make([]int32, s.m),
		AtUpper: make([]bool, s.nCols),
	}
	copy(ext.Basic, bas.Basic)
	copy(ext.AtUpper, bas.AtUpper)
	for i := oldM; i < s.m; i++ {
		ext.Basic[i] = int32(s.nStruct + i)
	}
	return ext
}

// The accessors below expose the simplex state of the most recent solve;
// they are meaningful only after a solve returned Optimal and before the
// next row mutation or solve.

// BasicVar returns the column basic in row i (a structural index < NumVars
// or a slack index nStruct+row), and BasicValue that column's value.
func (s *Solver) BasicVar(i int) int         { return int(s.basis[i]) }
func (s *Solver) BasicValue(i int) float64   { return s.xB[i] }
func (s *Solver) IsBasic(j int) bool         { return s.inBasis[j] }
func (s *Solver) NonbasicAtUpper(j int) bool { return s.atUpper[j] }

// ColBounds returns the bounds column j held in the most recent solve
// (structural bounds as passed to the solve; slack bounds encode the row
// relation).
func (s *Solver) ColBounds(j int) (lo, hi float64) { return s.lo[j], s.hi[j] }

// TableauRow returns row i of B^-1 [A I] for the most recent solve's
// basis: the coefficients of every column (structural then slack) in the
// row whose basic variable is BasicVar(i). Computed by one sparse BTRAN
// (rho = B^-T e_i) gathered through the pristine rows on the FT kernel;
// the dense oracle reads its tableau directly. The returned slice
// is kernel scratch, valid until the next TableauRow, pivot or solve —
// copy what must be kept.
func (s *Solver) TableauRow(i int) []float64 { return s.k.row(i) }
