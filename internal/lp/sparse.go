package lp

// Sparse matrix storage and LU factorisation under the Forrest-Tomlin
// kernel (forrest_tomlin.go).
//
// The dense test kernel (dense_oracle_test.go) materialises B^-1 [A|I] and
// rewrites all of it at every pivot — O(m*nCols) per pivot however sparse
// the model is, and the wavelength-MILP rows (clique aggregations,
// McCormick loss rows, degree cuts) are overwhelmingly sparse. The revised simplex stores only the
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
//   - A refactorisation costs the nonzeros it touches, not O(m) per
//     column: the ordering peels singletons from heaps instead of
//     rescanning the basis (orderBasisColumns), and the elimination visits
//     only each column's reach through the earlier L-etas
//     (buildFactorInto). Both reproduce the dense elimination's factor
//     bit for bit; the dense routines are kept as test oracles.
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
	"slices"
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

// loadMatrix builds the pristine CSR and CSC copies of the solver's
// constraint matrix, into the previous shape's arrays where they fit, and
// its memo signature.
func (k *ftKernel) loadMatrix() {
	m, n := k.s.m, k.s.nStruct
	// CSR: per-row column indices in ascending order (Coeffs is a map, so
	// sort for a deterministic layout), zero coefficients dropped.
	k.crStart = resize(k.crStart, m+1)
	k.crCol, k.crVal = k.crCol[:0], k.crVal[:0]
	var cols []int
	for i, c := range k.s.cons {
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
	k.ccStart = resize(k.ccStart, n+1)
	for _, c := range k.crCol {
		k.ccStart[c+1]++
	}
	for j := 0; j < n; j++ {
		k.ccStart[j+1] += k.ccStart[j]
	}
	k.ccRow = resize(k.ccRow, k.nnz)
	k.ccVal = resize(k.ccVal, k.nnz)
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
// peeled (the kernel of the basis) is ordered by the Markowitz fill bound,
// see below. The result — ordCols and, per step, the structurally forced
// pivot row in ordPref (-1 when the choice is left to the numerics) — is a
// pure function of the matrix pattern and the basis set, keeping
// refactorisation deterministic.
//
// The order is that of repeated ascending sweeps over every basic column,
// each emitting the column singletons it meets, with one row singleton
// (the lowest row) or one Markowitz pivot between sweeps that find nothing.
// Heaps stand in for the rescans: a column whose count drops to one joins
// the running sweep when it lies ahead of the sweep position and the next
// sweep otherwise, exactly where a rescan would meet it, so the cost is
// O(m + pattern nonzeros) plus the kernel block's Markowitz scans.
func (k *ftKernel) orderBasisColumns() {
	s := k.s
	m := s.m
	if k.stepOf == nil {
		k.allocRefactorScratch()
	}

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

	// Active counts and the initial singleton candidates; both lists are
	// built in ascending order, which is already heap order.
	k.colHeap, k.colNext, k.rowHeap = k.colHeap[:0], k.colNext[:0], k.rowHeap[:0]
	for r := 0; r < m; r++ {
		k.rowActive[r] = true
		k.rowCnt[r] = k.rcStart[r+1] - k.rcStart[r]
		if k.rowCnt[r] == 1 {
			k.rowHeap = append(k.rowHeap, int32(r))
		}
	}
	for _, c := range k.basicCols {
		k.colActive[c] = true
		if int(c) >= s.nStruct {
			k.colCnt[c] = 1
		} else {
			k.colCnt[c] = k.ccStart[c+1] - k.ccStart[c]
		}
		if k.colCnt[c] == 1 {
			k.colHeap = append(k.colHeap, c)
		}
	}
	k.sweepPos = -1

	k.ordCols = k.ordCols[:0]
	k.ordPref = k.ordPref[:0]
	for n := len(k.basicCols); len(k.ordCols) < n; {
		// Column-singleton sweep, ascending.
		progress := false
		for len(k.colHeap) > 0 {
			var c int32
			c, k.colHeap = popMin(k.colHeap)
			if !k.colActive[c] || k.colCnt[c] != 1 {
				continue
			}
			k.sweepPos = c
			if r := k.activeRowOf(c); r >= 0 {
				k.emitOrder(c, r)
				progress = true
			}
		}
		k.sweepPos = -1
		slices.Sort(k.colNext) // ascending is heap order
		k.colHeap, k.colNext = k.colNext, k.colHeap[:0]
		if progress {
			continue
		}
		// The lowest row singleton.
		for len(k.rowHeap) > 0 {
			var r int32
			r, k.rowHeap = popMin(k.rowHeap)
			if !k.rowActive[r] || k.rowCnt[r] != 1 {
				continue
			}
			if c := k.activeColOf(r); c >= 0 {
				k.emitOrder(c, r)
				progress = true
				break
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
		// cost correctness. Emitting a concrete row also keeps the
		// active-count bookkeeping exact through the kernel block. The scan
		// compacts basicCols to the still-active columns as it goes.
		bestC, bestR := int32(-1), int32(-1)
		bestCost := int64(math.MaxInt64)
		live := k.basicCols[:0]
		for _, c := range k.basicCols {
			if !k.colActive[c] {
				continue
			}
			live = append(live, c)
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
		k.basicCols = live
		if bestC >= 0 {
			k.emitOrder(bestC, bestR)
			continue
		}
		// No active (column, row) pair left — structurally deficient tail;
		// emit the lowest active column and leave the row to the numerics.
		if len(live) == 0 {
			break
		}
		k.emitOrder(live[0], -1)
	}
}

// allocRefactorScratch allocates the scratch of the ordering and the
// factor build on a kernel's first refactorisation after a reshape. None
// of the index lists ever outgrows m entries (each holds a row, a step or
// a basic column at most once), so they share one arena of capped slices,
// kept across reshapes.
func (k *ftKernel) allocRefactorScratch() {
	m := k.s.m
	k.seen = resize(k.seen, m)
	k.refArena = resize(k.refArena, 9*m)
	part := func(i int) []int32 { return k.refArena[i*m : i*m : (i+1)*m] }
	k.stepOf = part(0)[:m]
	k.touched, k.stepHeap = part(1), part(2)
	k.basicCols, k.ordCols, k.ordPref = part(3), part(4), part(5)
	k.colHeap, k.colNext, k.rowHeap = part(6), part(7), part(8)
}

// emitOrder appends elimination step (c, r) — r = -1 leaves the row to the
// numerics — and retires the column and the row from the active pattern.
// Counts that drop to one queue new singleton candidates: a row for the
// row-singleton heap, a column for the running sweep when it lies past the
// sweep position and for the next sweep otherwise.
func (k *ftKernel) emitOrder(c, r int32) {
	k.ordCols = append(k.ordCols, c)
	k.ordPref = append(k.ordPref, r)
	k.colActive[c] = false
	if nStruct := int32(k.s.nStruct); c >= nStruct {
		k.dropRowCount(c - nStruct)
	} else {
		for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
			k.dropRowCount(k.ccRow[t])
		}
	}
	if r < 0 {
		return
	}
	k.rowActive[r] = false
	for t := k.rcStart[r]; t < k.rcStart[r+1]; t++ {
		c := k.rcIdx[t]
		if !k.colActive[c] {
			continue
		}
		if k.colCnt[c]--; k.colCnt[c] == 1 {
			if c > k.sweepPos {
				k.colHeap = pushMin(k.colHeap, c)
			} else {
				k.colNext = append(k.colNext, c)
			}
		}
	}
}

// dropRowCount removes one active column from active row r's count.
func (k *ftKernel) dropRowCount(r int32) {
	if !k.rowActive[r] {
		return
	}
	if k.rowCnt[r]--; k.rowCnt[r] == 1 {
		k.rowHeap = pushMin(k.rowHeap, r)
	}
}

// activeRowOf returns the lowest active row of basic column c's pattern
// (a slack's own row), or -1.
func (k *ftKernel) activeRowOf(c int32) int32 {
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

// activeColOf returns the lowest active basic column in row r, or -1.
func (k *ftKernel) activeColOf(r int32) int32 {
	for t := k.rcStart[r]; t < k.rcStart[r+1]; t++ {
		if c := k.rcIdx[t]; k.colActive[c] {
			return c
		}
	}
	return -1
}

// pushMin adds x to the binary min-heap h.
func pushMin(h []int32, x int32) []int32 {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= x {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	return h
}

// popMin removes and returns the least element of the non-empty min-heap h.
func popMin(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	if n == 0 {
		return top, h
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if x <= h[l] {
			break
		}
		h[i] = h[l]
		i = l
	}
	h[i] = x
	return top, h
}

// refactorInto orders the current basic columns and eliminates them into
// dst, timing the whole refactorisation as one lp.sparse.refactor.ns
// sample. With pinned set the pinned-row elimination is tried first and
// the free one only when it goes singular, which pinnedFailed reports.
func (k *ftKernel) refactorInto(dst *luFactor, pinned bool) (ok, pinnedFailed bool) {
	start := time.Now()
	defer refactorH.RecordSince(start)
	k.orderBasisColumns()
	if pinned && k.buildFactorInto(dst, true) {
		return true, false
	}
	return k.buildFactorInto(dst, false), pinned
}

// buildFactorInto runs the left-looking LU elimination over the basic
// columns in the order computed by orderBasisColumns, into dst. With
// forced set, the pivot row of every column is taken from k.rowOf
// (mid-solve refactorisation: row labels must not move) and a too-small
// pivot aborts; otherwise the structural preference is tried first and
// falls back to the largest remaining |entry| (ties to the lowest row).
// Returns false on abort, leaving all live state untouched.
//
// The elimination is sparse, Gilbert–Peierls style: the work vector is
// zero between columns and only the rows a column touches are visited.
// Its L sweep pops the earlier steps whose pivot rows it reaches from a
// min-heap, in ascending step order, and skips a step whose pivot entry
// is zero — exactly the steps, in exactly the order, with exactly the
// arithmetic of a dense sweep over every earlier step. The pivot search
// and the L/U split scan the touched rows in ascending order, so the
// factor is bit-identical to the dense elimination's.
func (k *ftKernel) buildFactorInto(dst *luFactor, forced bool) bool {
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

	// stepOf[r] is the step that pivoted row r, -1 while r is unpivoted.
	v, stepOf, seen := k.work, k.stepOf, k.seen
	for r := 0; r < m; r++ {
		v[r] = 0
		stepOf[r] = -1
		seen[r] = false
	}
	touched, heap := k.touched[:0], k.stepHeap[:0]
	defer func() { k.touched, k.stepHeap = touched, heap }()
	nStruct := int32(s.nStruct)
	for t, c := range k.ordCols {
		// Scatter the column's own entries, queueing the steps of the
		// pivoted rows among them.
		touched = touched[:0]
		if c >= nStruct {
			i := c - nStruct
			v[i] = 1
			seen[i] = true
			touched = append(touched, i)
			if e := stepOf[i]; e >= 0 {
				heap = pushMin(heap, e)
			}
		} else {
			for q := k.ccStart[c]; q < k.ccStart[c+1]; q++ {
				i := k.ccRow[q]
				v[i] = k.ccVal[q]
				seen[i] = true
				touched = append(touched, i)
				if e := stepOf[i]; e >= 0 {
					heap = pushMin(heap, e)
				}
			}
		}
		// Forward L sweep over the reached steps. An eta only writes rows
		// pivoted after its own step, so the heap yields steps in
		// ascending order and each at most once.
		for len(heap) > 0 {
			var e int32
			e, heap = popMin(heap)
			f := v[dst.piv[e]]
			if f == 0 {
				continue
			}
			for q := dst.lStart[e]; q < dst.lStart[e+1]; q++ {
				i := dst.lIdx[q]
				v[i] -= dst.lVal[q] * f
				if !seen[i] {
					seen[i] = true
					touched = append(touched, i)
					if e := stepOf[i]; e >= 0 {
						heap = pushMin(heap, e)
					}
				}
			}
		}
		slices.Sort(touched)
		// Pivot row selection. Untouched rows hold zero, so scanning the
		// touched ones finds what a scan over all rows would.
		r := int32(-1)
		if forced {
			r = k.rowOf[c]
			if math.Abs(v[r]) <= pivTol {
				return false
			}
		} else if p := k.ordPref[t]; p >= 0 && stepOf[p] < 0 && math.Abs(v[p]) > pivTol {
			r = p
		} else {
			bestAbs := pivTol
			for _, i := range touched {
				if stepOf[i] >= 0 {
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
		// Split the column into its L-eta and U entries, clearing the
		// work vector behind it.
		inv := 1 / v[r]
		for _, i := range touched {
			f := v[i]
			v[i] = 0
			seen[i] = false
			if i == r || f == 0 {
				continue
			}
			if stepOf[i] >= 0 {
				dst.uRow = append(dst.uRow, i)
				dst.uVal = append(dst.uVal, f)
			} else {
				dst.lIdx = append(dst.lIdx, i)
				dst.lVal = append(dst.lVal, f*inv)
			}
		}
		dst.piv = append(dst.piv, r)
		dst.inv = append(dst.inv, inv)
		dst.lStart = append(dst.lStart, int32(len(dst.lIdx)))
		dst.uStart = append(dst.uStart, int32(len(dst.uRow)))
		stepOf[r] = int32(t)
		dst.perm[r] = c
	}
	dst.fill = len(dst.lIdx) + len(dst.uRow) + len(dst.piv) - k.basisColsNnz()
	if dst.fill < 0 {
		dst.fill = 0
	}
	return true
}
