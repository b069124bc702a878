package lp

// Sparse matrix storage and LU factorisation under the Forrest-Tomlin
// kernel (forrest_tomlin.go).
//
// The dense kernel materialises B^-1 [A|I] and rewrites all of it at every
// pivot — O(m*nCols) per pivot however sparse the model is, and the
// wavelength-MILP rows (clique aggregations, McCormick loss rows, degree
// cuts) are overwhelmingly sparse. The revised simplex stores only the
// pristine matrix and a factorisation of the current basis, and computes
// tableau slices on demand:
//
//   - The structural matrix A is held twice, in compressed sparse column
//     form (for FTRAN scatters and factor builds) and compressed sparse row
//     form (for assembling tableau rows and prices from a BTRAN vector).
//     Slack columns are implicit: column nStruct+i is e_i.
//   - The basis is LU-factorised (see luFactor): Gaussian elimination over
//     the basic columns in a fill-reducing order, storing the multipliers
//     as L-etas and the frozen-row remainders as U columns. The FT kernel
//     runs the factor's L sweeps and keeps its own, updated copy of U.
//   - Tableau column j is FTRAN(A_j); tableau row i is rho^T [A|I] with
//     rho = BTRAN(e_i), gathered through the CSR rows rho touches.
//   - The reduced-cost row d lives in the Solver and is updated at each
//     pivot only at the columns where the pivot row is nonzero (partial
//     pricing over sparse columns); entering selection stays the shared
//     O(nCols) Dantzig scan in the Solver, so the pivot *sequence* follows
//     the same rules the dense kernel applies.
//
// The factorisation — elimination order included — is a pure function of
// the matrix and the basis, and refactorisation points are pivot counts,
// so parallel and sequential runs stay bit-identical. A mid-solve rebuild
// keeps each basic column in its current row where it can — the
// leaving-row rules key on row labels — and compares the recomputed basic
// values against the incrementally maintained ones: the numerical-accuracy
// check, counted when they disagree beyond refactorAccTol.
//
// Everything the kernel needs per solve lives in reusable arenas (scratch
// vectors, a two-slot ring of mid-solve factors, the U file), so a
// branch-and-bound node re-solve allocates almost nothing; the exception
// is a warm start over a basis nobody factorised yet, whose factor is
// freshly allocated because it outlives the solver on the Basis snapshot.

import (
	"math"
	"sort"
	"time"
)

// refactorAccTol bounds the disagreement between the incrementally
// maintained basic values and their recomputation from pristine data at a
// refactorisation before it counts as an accuracy failure.
const refactorAccTol = 1e-6

// matrixSig identifies the pristine constraint matrix a factorisation was
// built from, so a memoised factor is never applied to a different problem.
type matrixSig struct {
	m, nCols, nnz int
	sum           uint64
}

// luFactor is an LU factorisation of a simplex basis, stored pivot step by
// pivot step. Step t eliminated basic column perm[piv[t]] with pivot row
// piv[t] and pivot value 1/inv[t]:
//
//   - L-eta t holds the elimination multipliers (lIdx, lVal) applied to the
//     rows still active at step t; applying the etas in order performs the
//     forward substitution L^-1.
//   - U column t holds the column's remainders (uRow, uVal) in rows frozen
//     by earlier steps; the columns together form the upper-triangular
//     factor (in pivot order), solved backward after L, column-oriented.
//
// A factor is immutable once built. Warm-start factors are memoised on the
// Basis snapshot and shared across solver instances (and speculative
// workers); mid-solve factors live in a per-kernel arena and are never
// shared.
type luFactor struct {
	sig  matrixSig
	perm []int32 // row r -> basic column (the factor's row assignment)

	piv    []int32   // len m: pivot row of each elimination step
	inv    []float64 // len m: reciprocal pivot values
	lStart []int32   // len m+1 offsets into lIdx/lVal
	lIdx   []int32
	lVal   []float64
	uStart []int32 // len m+1 offsets into uRow/uVal
	uRow   []int32
	uVal   []float64
	fill   int // nonzeros beyond the basic columns' own (fill-in)
}

// clone copies the factor into freshly allocated, exactly sized arrays.
// Memoised factors are built in a reusable scratch whose arrays carry
// append-growth slack; the snapshot keeps only a trimmed copy.
func (f *luFactor) clone() *luFactor {
	c := &luFactor{sig: f.sig, fill: f.fill}
	c.perm = append(make([]int32, 0, len(f.perm)), f.perm...)
	c.piv = append(make([]int32, 0, len(f.piv)), f.piv...)
	c.inv = append(make([]float64, 0, len(f.inv)), f.inv...)
	c.lStart = append(make([]int32, 0, len(f.lStart)), f.lStart...)
	c.lIdx = append(make([]int32, 0, len(f.lIdx)), f.lIdx...)
	c.lVal = append(make([]float64, 0, len(f.lVal)), f.lVal...)
	c.uStart = append(make([]int32, 0, len(f.uStart)), f.uStart...)
	c.uRow = append(make([]int32, 0, len(f.uRow)), f.uRow...)
	c.uVal = append(make([]float64, 0, len(f.uVal)), f.uVal...)
	return c
}

// ftranL overwrites v with L^-1 v: the forward sweep through the
// elimination multipliers. The FT kernel layers its own U representation
// on top.
func (f *luFactor) ftranL(v []float64) {
	n := len(f.piv)
	for t := 0; t < n; t++ {
		c := v[f.piv[t]]
		if c != 0 {
			for q := f.lStart[t]; q < f.lStart[t+1]; q++ {
				v[f.lIdx[q]] -= f.lVal[q] * c
			}
		}
	}
}

// btranLT overwrites v with L^-T v: the backward transposed-multiplier
// sweep, the counterpart of ftranL for BTRAN.
func (f *luFactor) btranLT(v []float64) {
	for t := len(f.piv) - 1; t >= 0; t-- {
		r := f.piv[t]
		acc := v[r]
		for q := f.lStart[t]; q < f.lStart[t+1]; q++ {
			acc -= f.lVal[q] * v[f.lIdx[q]]
		}
		v[r] = acc
	}
}

// loadMatrix builds the pristine CSR and CSC copies of the constraint
// matrix and its memo signature.
func (k *ftKernel) loadMatrix(p *Problem) {
	m, n := k.s.m, k.s.nStruct
	// CSR: per-row column indices in ascending order (Coeffs is a map, so
	// sort for a deterministic layout), zero coefficients dropped.
	k.crStart = make([]int32, m+1)
	var cols []int
	for i, c := range p.Constraints {
		cols = cols[:0]
		for v, coeff := range c.Coeffs {
			if coeff != 0 {
				cols = append(cols, v)
			}
		}
		sort.Ints(cols)
		for _, v := range cols {
			k.crCol = append(k.crCol, int32(v))
			k.crVal = append(k.crVal, c.Coeffs[v])
		}
		k.crStart[i+1] = int32(len(k.crCol))
	}
	k.nnz = len(k.crCol)

	// CSC from CSR; row order within each column is ascending because the
	// CSR rows are visited in ascending order.
	k.ccStart = make([]int32, n+1)
	for _, c := range k.crCol {
		k.ccStart[c+1]++
	}
	for j := 0; j < n; j++ {
		k.ccStart[j+1] += k.ccStart[j]
	}
	k.ccRow = make([]int32, k.nnz)
	k.ccVal = make([]float64, k.nnz)
	next := make([]int32, n)
	copy(next, k.ccStart[:n])
	for i := 0; i < m; i++ {
		for t := k.crStart[i]; t < k.crStart[i+1]; t++ {
			j := k.crCol[t]
			k.ccRow[next[j]] = int32(i)
			k.ccVal[next[j]] = k.crVal[t]
			next[j]++
		}
	}

	k.sig = matrixSig{m: m, nCols: k.s.nCols, nnz: k.nnz, sum: k.checksum()}
}

// checksum hashes the pristine matrix layout and values (FNV-1a over the
// CSR arrays) for the factor-memo signature.
func (k *ftKernel) checksum() uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, v := range k.crStart {
		mix(uint64(v))
	}
	for i, c := range k.crCol {
		mix(uint64(c))
		mix(math.Float64bits(k.crVal[i]))
	}
	return h
}

// scatter writes pristine column j of [A|I] into the dense vector v.
func (k *ftKernel) scatter(v []float64, j int) {
	for i := range v {
		v[i] = 0
	}
	if j >= k.s.nStruct {
		v[j-k.s.nStruct] = 1
		return
	}
	for t := k.ccStart[j]; t < k.ccStart[j+1]; t++ {
		v[k.ccRow[t]] = k.ccVal[t]
	}
}

// basisColsNnz counts the pristine nonzeros of the current basic columns,
// the baseline against which factor fill-in is measured.
func (k *ftKernel) basisColsNnz() int {
	s, n := k.s, 0
	for _, c := range k.s.basis {
		if int(c) >= s.nStruct {
			n++
		} else {
			n += int(k.ccStart[c+1] - k.ccStart[c])
		}
	}
	return n
}

// orderBasisColumns computes a fill-reducing elimination order over the
// current basic columns by peeling singletons of the pristine pattern —
// the classic triangularisation pre-pass. A column with one remaining
// active row (or a row with one remaining active column) pivots without
// producing elimination work in the triangular part; whatever cannot be
// peeled (the kernel of the basis) is ordered by fewest active rows and
// left to numerical pivoting. The result — ordCols and, per step, the
// structurally forced pivot row in ordPref (-1 when the choice is left to
// the numerics) — is a pure function of the matrix pattern and the basis
// set, keeping refactorisation deterministic.
func (k *ftKernel) orderBasisColumns() {
	s := k.s
	m := s.m

	k.basicCols = k.basicCols[:0]
	for j := 0; j < s.nCols; j++ {
		if s.inBasis[j] {
			k.basicCols = append(k.basicCols, int32(j))
		}
	}

	// Row -> basic-column incidence of the pristine pattern.
	for r := 0; r <= m; r++ {
		k.rcStart[r] = 0
	}
	for _, c := range k.basicCols {
		if int(c) >= s.nStruct {
			k.rcStart[int(c)-s.nStruct+1]++
		} else {
			for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
				k.rcStart[k.ccRow[t]+1]++
			}
		}
	}
	for r := 0; r < m; r++ {
		k.rcStart[r+1] += k.rcStart[r]
	}
	need := int(k.rcStart[m])
	if cap(k.rcIdx) < need {
		k.rcIdx = make([]int32, need)
	}
	k.rcIdx = k.rcIdx[:need]
	fillPos := k.rowCnt // borrow as fill cursor before counts are computed
	for r := 0; r < m; r++ {
		fillPos[r] = k.rcStart[r]
	}
	for _, c := range k.basicCols {
		if int(c) >= s.nStruct {
			r := int(c) - s.nStruct
			k.rcIdx[fillPos[r]] = c
			fillPos[r]++
		} else {
			for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
				r := k.ccRow[t]
				k.rcIdx[fillPos[r]] = c
				fillPos[r]++
			}
		}
	}

	for r := 0; r < m; r++ {
		k.rowActive[r] = true
		k.rowCnt[r] = k.rcStart[r+1] - k.rcStart[r]
	}
	for _, c := range k.basicCols {
		k.colActive[c] = true
		if int(c) >= s.nStruct {
			k.colCnt[c] = 1
		} else {
			k.colCnt[c] = k.ccStart[c+1] - k.ccStart[c]
		}
	}

	deactivateCol := func(c int32) {
		k.colActive[c] = false
		if int(c) >= s.nStruct {
			r := c - int32(s.nStruct)
			if k.rowActive[r] {
				k.rowCnt[r]--
			}
			return
		}
		for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
			if r := k.ccRow[t]; k.rowActive[r] {
				k.rowCnt[r]--
			}
		}
	}
	deactivateRow := func(r int32) {
		k.rowActive[r] = false
		for t := k.rcStart[r]; t < k.rcStart[r+1]; t++ {
			if c := k.rcIdx[t]; k.colActive[c] {
				k.colCnt[c]--
			}
		}
	}
	activeRowOf := func(c int32) int32 {
		if int(c) >= k.s.nStruct {
			return c - int32(k.s.nStruct)
		}
		for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
			if r := k.ccRow[t]; k.rowActive[r] {
				return r
			}
		}
		return -1
	}
	activeColOf := func(r int32) int32 {
		for t := k.rcStart[r]; t < k.rcStart[r+1]; t++ {
			if c := k.rcIdx[t]; k.colActive[c] {
				return c
			}
		}
		return -1
	}

	k.ordCols = k.ordCols[:0]
	k.ordPref = k.ordPref[:0]
	emit := func(c, r int32) {
		k.ordCols = append(k.ordCols, c)
		k.ordPref = append(k.ordPref, r)
		deactivateCol(c)
		if r >= 0 {
			deactivateRow(r)
		}
	}
	for len(k.ordCols) < len(k.basicCols) {
		progress := false
		for _, c := range k.basicCols {
			if k.colActive[c] && k.colCnt[c] == 1 {
				if r := activeRowOf(c); r >= 0 {
					emit(c, r)
					progress = true
				}
			}
		}
		if progress {
			continue
		}
		for r := int32(0); int(r) < m; r++ {
			if k.rowActive[r] && k.rowCnt[r] == 1 {
				if c := activeColOf(r); c >= 0 {
					emit(c, r)
					progress = true
					break
				}
			}
		}
		if progress {
			continue
		}
		// Kernel of the basis: Markowitz pivoting. Over every active
		// (column, active row of its pristine pattern) pair, minimise the
		// fill bound (colCnt-1)*(rowCnt-1); ties break to the lowest column,
		// then the lowest row, keeping the order a pure function of the
		// pattern. The winning row is emitted as a structural *preference* —
		// buildFactorInto still falls back to largest-|entry| when the
		// preferred pivot is numerically tiny, so the heuristic can never
		// cost correctness. Emitting a concrete row (unlike the old
		// fewest-active-rows rule, which left it to the numerics) also keeps
		// the active-count bookkeeping exact through the kernel block.
		bestC, bestR := int32(-1), int32(-1)
		bestCost := int64(math.MaxInt64)
		for _, c := range k.basicCols {
			if !k.colActive[c] {
				continue
			}
			cc := int64(k.colCnt[c] - 1)
			if cc < 0 || cc >= bestCost { // a whole column can't beat the best pair
				continue
			}
			if int(c) >= s.nStruct {
				if r := c - int32(s.nStruct); k.rowActive[r] {
					if cost := cc * int64(k.rowCnt[r]-1); cost < bestCost {
						bestC, bestR, bestCost = c, r, cost
					}
				}
				continue
			}
			for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
				r := k.ccRow[t]
				if !k.rowActive[r] {
					continue
				}
				if cost := cc * int64(k.rowCnt[r]-1); cost < bestCost {
					bestC, bestR, bestCost = c, r, cost
				}
			}
		}
		if bestC >= 0 {
			emit(bestC, bestR)
			continue
		}
		// No active (column, row) pair left — structurally deficient tail;
		// emit the lowest active column and leave the row to the numerics.
		best := int32(-1)
		for _, c := range k.basicCols {
			if k.colActive[c] {
				best = c
				break
			}
		}
		if best < 0 {
			break
		}
		emit(best, -1)
	}
}

// buildFactorInto runs the left-looking LU elimination over the basic
// columns in the order computed by orderBasisColumns, into dst. With
// forced set, the pivot row of every column is taken from k.rowOf
// (mid-solve refactorisation: row labels must not move) and a too-small
// pivot aborts; otherwise the structural preference is tried first and
// falls back to the largest remaining |entry| (ties to the lowest row).
// Returns false on abort, leaving all live state untouched.
func (k *ftKernel) buildFactorInto(dst *luFactor, forced bool) bool {
	factorStart := time.Now()
	defer k.s.refactorH.RecordSince(factorStart)
	s := k.s
	m := s.m
	dst.sig = k.sig
	dst.piv = dst.piv[:0]
	dst.inv = dst.inv[:0]
	dst.lStart = append(dst.lStart[:0], 0)
	dst.lIdx = dst.lIdx[:0]
	dst.lVal = dst.lVal[:0]
	dst.uStart = append(dst.uStart[:0], 0)
	dst.uRow = dst.uRow[:0]
	dst.uVal = dst.uVal[:0]
	if cap(dst.perm) < m {
		dst.perm = make([]int32, m)
	}
	dst.perm = dst.perm[:m]

	pivoted := k.pivotedRows
	for r := range pivoted {
		pivoted[r] = false
	}
	v := k.work
	for t, c := range k.ordCols {
		k.scatter(v, int(c))
		// Forward L sweep through the steps built so far.
		for e := 0; e < len(dst.piv); e++ {
			f := v[dst.piv[e]]
			if f != 0 {
				for q := dst.lStart[e]; q < dst.lStart[e+1]; q++ {
					v[dst.lIdx[q]] -= dst.lVal[q] * f
				}
			}
		}
		// Pivot row selection.
		r := -1
		if forced {
			r = int(k.rowOf[c])
			if math.Abs(v[r]) <= pivTol {
				return false
			}
		} else {
			if p := k.ordPref[t]; p >= 0 && !pivoted[p] && math.Abs(v[p]) > pivTol {
				r = int(p)
			} else {
				bestAbs := pivTol
				for i := 0; i < m; i++ {
					if pivoted[i] {
						continue
					}
					if abs := math.Abs(v[i]); abs > bestAbs {
						r, bestAbs = i, abs
					}
				}
				if r < 0 {
					return false // singular within tolerance
				}
			}
		}
		inv := 1 / v[r]
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			f := v[i]
			if f == 0 {
				continue
			}
			if pivoted[i] {
				dst.uRow = append(dst.uRow, int32(i))
				dst.uVal = append(dst.uVal, f)
			} else {
				dst.lIdx = append(dst.lIdx, int32(i))
				dst.lVal = append(dst.lVal, f*inv)
			}
		}
		dst.piv = append(dst.piv, int32(r))
		dst.inv = append(dst.inv, inv)
		dst.lStart = append(dst.lStart, int32(len(dst.lIdx)))
		dst.uStart = append(dst.uStart, int32(len(dst.uRow)))
		pivoted[r] = true
		dst.perm[r] = c
	}
	dst.fill = len(dst.lIdx) + len(dst.uRow) + len(dst.piv) - k.basisColsNnz()
	if dst.fill < 0 {
		dst.fill = 0
	}
	return true
}
