package lp

import "math"

// The dense oracle: a second kernel behind the same pivot rules, used only
// to cross-check the Forrest-Tomlin kernel.

// NewDenseSolver is NewSolver with the dense full-tableau kernel: every
// pivot rewrites the whole m x nCols tableau. It is the test oracle the FT
// kernel is cross-checked against; both kernels share every pivot rule, so
// their pivot sequences coincide up to floating-point tie noise.
func NewDenseSolver(p *Problem) (*Solver, error) {
	s, err := newSolverCore(p)
	if err != nil {
		return nil, err
	}
	s.k = newDenseKernel(s)
	return s, nil
}

// denseKernel is the dense Gauss-Jordan oracle: the full
// m x nCols tableau B^-1 [A|I] is materialised and every pivot rewrites all
// of it (plus the reduced-cost rows). Simple and predictable, but each
// pivot costs O(m*nCols) regardless of sparsity.
type denseKernel struct {
	s     *Solver
	rows  [][]float64 // m x nStruct pristine structural coefficients
	a     [][]float64 // m x nCols tableau
	cells []float64   // backing storage for a
	col   []float64   // len m: column scratch handed to the pivot loops
	perm  []int32     // len m: refactorisation scratch
}

func newDenseKernel(s *Solver) *denseKernel {
	m, n := s.m, s.nStruct
	k := &denseKernel{
		s:    s,
		col:  make([]float64, m),
		perm: make([]int32, m),
	}
	k.rows = make([][]float64, m)
	rowCells := make([]float64, m*n)
	for i, c := range s.cons {
		k.rows[i] = rowCells[i*n : (i+1)*n]
		for v, coeff := range c.Coeffs {
			k.rows[i][v] = coeff
		}
	}
	k.a = make([][]float64, m)
	k.cells = make([]float64, m*s.nCols)
	for i := range k.a {
		k.a[i] = k.cells[i*s.nCols : (i+1)*s.nCols]
	}
	return k
}

// reshape rebuilds the oracle from scratch: it needs no buffer reuse.
func (k *denseKernel) reshape() { *k = *newDenseKernel(k.s) }

func (k *denseKernel) beginSolve() {}

// fillPristine loads A|I into the tableau.
func (k *denseKernel) fillPristine() {
	s := k.s
	for i := 0; i < s.m; i++ {
		row := k.a[i]
		copy(row, k.rows[i])
		for j := s.nStruct; j < s.nCols; j++ {
			row[j] = 0
		}
		row[s.nStruct+i] = 1
	}
}

func (k *denseKernel) loadSlack() { k.fillPristine() }

// pivotTableau performs a Gauss-Jordan pivot on (row, col) over the
// coefficient columns, the reduced-cost row(s) and rhsBar.
func (k *denseKernel) pivotTableau(row, col int) {
	s := k.s
	pr := k.a[row]
	inv := 1 / pr[col]
	for j := 0; j < s.nCols; j++ {
		pr[j] *= inv
	}
	pr[col] = 1
	s.rhsBar[row] *= inv
	for i := 0; i < s.m; i++ {
		if i == row {
			continue
		}
		f := k.a[i][col]
		if f == 0 {
			continue
		}
		ri := k.a[i]
		for j := 0; j < s.nCols; j++ {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
		s.rhsBar[i] -= f * s.rhsBar[row]
	}
	if f := s.d[col]; f != 0 {
		for j := 0; j < s.nCols; j++ {
			s.d[j] -= f * pr[j]
		}
		s.d[col] = 0
	}
	if s.usePert {
		if f := s.pert[col]; f != 0 {
			for j := 0; j < s.nCols; j++ {
				s.pert[j] -= f * pr[j]
			}
			s.pert[col] = 0
		}
	}
}

func (k *denseKernel) refactorize(bas *Basis) bool {
	s := k.s
	k.fillPristine()
	copy(s.d, s.obj)
	s.initRHSBar()

	// Eliminate basic columns in ascending order; perm[r] < 0 marks rows
	// still available as pivot rows.
	for i := range k.perm {
		k.perm[i] = -1
	}
	done := 0
	for j := 0; j < s.nCols && done < s.m; j++ {
		if !s.inBasis[j] {
			continue
		}
		best, bestAbs := -1, pivTol
		for r := 0; r < s.m; r++ {
			if k.perm[r] >= 0 {
				continue
			}
			if abs := math.Abs(k.a[r][j]); abs > bestAbs {
				best, bestAbs = r, abs
			}
		}
		if best < 0 {
			return false // singular within tolerance
		}
		k.pivotTableau(best, j)
		k.perm[best] = int32(j)
		done++
	}
	if done != s.m {
		return false
	}
	for r := 0; r < s.m; r++ {
		s.basis[r] = k.perm[r]
	}
	return true
}

func (k *denseKernel) column(j int) []float64 {
	for i := 0; i < k.s.m; i++ {
		k.col[i] = k.a[i][j]
	}
	return k.col
}

func (k *denseKernel) row(i int) []float64 { return k.a[i] }

func (k *denseKernel) pivot(leave, enter int) bool {
	k.pivotTableau(leave, enter)
	return true
}

// computeXB recomputes the basic values from rhsBar (B^-1 b) and the
// current nonbasic resting values: xB[i] = rhsBar[i] - sum over nonbasic j
// of a[i][j] * x_j. The tableau rows must already be in basis form (B^-1 A).
func (k *denseKernel) computeXB() {
	s := k.s
	copy(s.xB, s.rhsBar)
	for j := 0; j < s.nCols; j++ {
		if s.inBasis[j] {
			continue
		}
		v := s.boundVal(j)
		if v == 0 {
			continue
		}
		for i := 0; i < s.m; i++ {
			if aij := k.a[i][j]; aij != 0 {
				s.xB[i] -= aij * v
			}
		}
	}
}

func (k *denseKernel) solveStats(*Solution) {}
