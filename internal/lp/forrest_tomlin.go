package lp

// The Forrest-Tomlin kernel: the one production simplex kernel.
//
// A basis change does not rebuild the LU factorisation (sparse.go); it
// updates the U factor in place. The exchange replaces one U column with
// the spike w = L^-1 a_q (transformed through the earlier FT etas),
// cyclically permutes it to the last elimination position, and restores
// triangularity by eliminating the leaving row's remaining U entries with
// one composite row eta. FTRAN/BTRAN then cost the (permuted, slightly
// filled) factor itself — the representation tightens instead of deepening,
// and the eta file holds one *row* transform per pivot whose length is the
// leaving row's U fill.
//
// Representation. U is held column-wise in m slots. Slot t carries its
// pivot row (slotPiv), reciprocal pivot (slotInv) and off-pivot column
// entries; order[] is the elimination-position permutation of slots
// (identity after a refactorisation, cyclically rotated by each update).
// Triangularity invariant: every stored entry of the column at position p
// sits in a row whose own slot holds an earlier position. Columns are
// copy-on-write over the pristine luFactor arrays — installing a
// refactorised base is O(m), and only columns an update actually edits are
// materialised into kernel-owned arenas. A row-wise index (rows[r]: the
// slots holding an entry at row r) is built lazily at the first update and
// maintained incrementally; it drives both the update elimination and the
// O(row fill) strip of the leaving row.
//
// The update at leaving row r, entering column q:
//
//	w  = (FT etas) L^-1 a_q                 (spike, recomputed sparsely)
//	mu = w[r] - sum_j m_j w[p_j]            (new diagonal)
//
// where the pairs (p_j, m_j) eliminate row r's stored U entries left to
// right by position: m_j = u_rj / u_pj,pj, with fill propagated through
// rows[p_j] strictly rightward (the invariant above guarantees it). The
// pairs form ONE row eta E: (Ev)[r] = v[r] - sum m_j v[p_j], applied
// ascending in FTRAN between L and U, transposed descending in BTRAN.
// |mu| <= pivTol rejects the update: the kernel refactorises for the new
// basis instead, and if even that rebuild is singular the pivot reports
// failure and the pivot loop stops the solve (counted in lp.ft.fallbacks).
//
// Refactorisation policy: every defaultFTRefactorEvery updates
// (refactorEveryOverride replaces it in tests), or earlier when the
// accumulated fill — spike entries plus eta pairs — crosses half the
// pristine factored nonzeros (plus a small slack so tiny factors don't
// thrash). Rebuilds run the Markowitz-ordered elimination of sparse.go
// with row labels pinned, relabelling through free pivoting only when the
// pinned elimination goes singular.

import "math"

// defaultFTRefactorEvery is the Forrest-Tomlin update count that triggers
// a periodic refactorisation. FT updates keep the factor tight, so the
// interval can be long.
const defaultFTRefactorEvery = 64

// ftFillSlack is the absolute fill allowance added to the relative
// fill-growth refactorisation trigger, so factors with a handful of
// nonzeros don't refactorise on every update.
const ftFillSlack = 16

// singularRetryInterval is how many pivots the periodic refactorisation
// triggers stay silent after a rebuild came out singular even under free
// pivoting, bounding the cost of repeated failed elimination attempts to at most
// one per interval while still escaping the degenerate basis that caused
// the failure.
const singularRetryInterval = 8

// ftEntry is one row-index record: column slot t holds val at this row.
type ftEntry struct {
	slot int32
	val  float64
}

// ftKernel implements kernel with the sparse revised simplex and
// Forrest-Tomlin updates: the pristine matrix, the scratch arenas and the
// factor builder of sparse.go, plus the updated U file.
type ftKernel struct {
	s *Solver

	// Pristine structural matrix, column- and row-compressed.
	ccStart []int32 // len nStruct+1
	ccRow   []int32
	ccVal   []float64
	crStart []int32 // len m+1
	crCol   []int32
	crVal   []float64
	nnz     int
	sig     matrixSig

	base *luFactor // pristine factor under the updates; nil = slack identity

	// Two-slot ring of mid-solve factor arenas: the slot being rebuilt is
	// never the live base, so an aborted rebuild leaves the current
	// representation intact.
	midFactor [2]*luFactor
	midNext   int
	// buildTmp is the reusable scratch the warm-start elimination writes
	// into before the exact-size clone is memoised on the Basis snapshot.
	buildTmp *luFactor

	colScratch  []float64 // len m: column handed to the pivot loops
	rowScratch  []float64 // len nCols: row handed to the dual loop
	rho         []float64 // len m: BTRAN work
	work        []float64 // len m: internal FTRAN work
	xbScratch   []float64 // len m: accuracy-check snapshot
	rowOf       []int32   // len nCols: column -> current row, refactor scratch
	rowValidFor int       // row index rowScratch currently holds, -1 if none

	// Factor-build scratch (buildFactorInto), partitioned with the
	// ordering's index lists out of refArena by allocRefactorScratch.
	refArena []int32
	stepOf   []int32 // len m: elimination step that pivoted row r, -1 if none
	seen     []bool  // len m: row touched by the current column
	touched  []int32 // rows touched by the current column
	stepHeap []int32 // min-heap of reached elimination steps

	// Elimination-ordering scratch (orderBasisColumns).
	basicCols []int32 // ascending basic columns, compacted to the active ones by the Markowitz scan
	ordCols   []int32 // emitted elimination order
	ordPref   []int32 // structurally chosen pivot row per step, -1 if none
	rcStart   []int32 // len m+1: row -> basic-column incidence offsets
	rcIdx     []int32
	colCnt    []int32 // len nCols: active-row counts per basic column
	rowCnt    []int32 // len m: active-basic-column counts per row
	colActive []bool  // len nCols
	rowActive []bool  // len m
	colHeap   []int32 // column-singleton candidates of the running sweep
	colNext   []int32 // column-singleton candidates of the next sweep
	rowHeap   []int32 // row-singleton candidates, validated when popped
	sweepPos  int32   // column the running sweep is at, -1 between sweeps

	// U slots. Slot t's column entries live in colRow/colVal[t] once
	// cowed[t]; before that they alias base's uRow/uVal (or are empty for
	// the slack identity).
	slotPiv []int32   // len m: pivot row of slot t (stable across updates)
	slotInv []float64 // len m: reciprocal diagonal of slot t
	cowed   []bool    // len m
	colRow  [][]int32
	colVal  [][]float64

	order    []int32 // len m: slot at each elimination position
	orderPos []int32 // len m: position of each slot
	rowSlot  []int32 // len m: slot whose pivot row is r

	rows      [][]ftEntry // row r -> slots holding an entry at r
	rowsBuilt bool

	// FT row-eta file: eta e targets row ftRow[e] with the multiplier
	// pairs ftRowIdx/ftVal[ftStart[e]:ftStart[e+1]].
	ftRow    []int32
	ftStart  []int32 // len(ftRow)+1
	ftRowIdx []int32
	ftVal    []float64

	wScratch   []float64 // len m: spike work
	posScratch []float64 // len m: position-indexed elimination row

	baseNnz  int // pristine factored nonzeros at the last refactorisation
	addedNnz int // spike entries + eta pairs accumulated since
	updates  int // FT updates since the last refactorisation

	// rebuildCooloff suppresses the periodic refactorisation triggers for
	// this many pivots after a rebuild came out singular. The singularity
	// is a property of the basis the rebuild was attempted at, not of the
	// solve: a later basis usually rebuilds fine, so the kernel retries on
	// a deterministic cadence, bounding the cost of failed elimination
	// attempts to at most one per interval.
	rebuildCooloff int

	// Per-solve statistics (reset by beginSolve).
	stRefactor  int
	stFill      int
	stAccFail   int
	stSingular  int // mid-solve pinned-row rebuilds that went singular
	stUpdates   int
	stSpikeNNZ  int
	stFallbacks int
}

func newFTKernel(s *Solver) *ftKernel {
	k := &ftKernel{s: s, ftStart: []int32{0}}
	k.reshape()
	return k
}

// reshape sizes the kernel for the solver's current rows and loads their
// matrix, reusing the previous shape's buffers: resize zeroes the flat
// scratch, the per-slot and per-row lists are emptied, and the factor
// arenas (midFactor, buildTmp) are rewritten from scratch by every build,
// so the kernel behaves exactly like a freshly built one. No memoised
// factor aliases these buffers: a memo is always an exact-size clone.
func (k *ftKernel) reshape() {
	m, nCols := k.s.m, k.s.nCols
	k.rowValidFor = -1
	k.colScratch = resize(k.colScratch, m)
	k.rowScratch = resize(k.rowScratch, nCols)
	k.rho = resize(k.rho, m)
	k.work = resize(k.work, m)
	k.xbScratch = resize(k.xbScratch, m)
	k.rowOf = resize(k.rowOf, nCols)
	k.rcStart = resize(k.rcStart, m+1)
	k.colCnt = resize(k.colCnt, nCols)
	k.rowCnt = resize(k.rowCnt, m)
	k.colActive = resize(k.colActive, nCols)
	k.rowActive = resize(k.rowActive, m)
	k.slotPiv = resize(k.slotPiv, m)
	k.slotInv = resize(k.slotInv, m)
	k.cowed = resize(k.cowed, m)
	k.colRow = emptyLists(k.colRow, m)
	k.colVal = emptyLists(k.colVal, m)
	k.order = resize(k.order, m)
	k.orderPos = resize(k.orderPos, m)
	k.rowSlot = resize(k.rowSlot, m)
	k.rows = emptyLists(k.rows, m)
	k.wScratch = resize(k.wScratch, m)
	k.posScratch = resize(k.posScratch, m)
	k.stepOf = nil // the ordering scratch is re-partitioned for m lazily
	k.midNext = 0
	k.rebuildCooloff = 0
	k.loadMatrix()
	k.installBase(nil)
}

// emptyLists returns ls with length n and every list emptied, keeping the
// lists' arrays for reuse.
func emptyLists[T any](ls [][]T, n int) [][]T {
	if cap(ls) < n {
		ls = append(ls[:cap(ls)], make([][]T, n-cap(ls))...)
	}
	ls = ls[:n]
	for i := range ls {
		ls[i] = ls[i][:0]
	}
	return ls
}

func (k *ftKernel) beginSolve() {
	k.stRefactor, k.stFill, k.stAccFail, k.stSingular = 0, 0, 0, 0
	k.stUpdates, k.stSpikeNNZ, k.stFallbacks = 0, 0, 0
}

func (k *ftKernel) solveStats(sol *Solution) {
	sol.Sparse = true
	sol.SparseNNZ = k.nnz
	sol.SparseRefactorizations = k.stRefactor
	sol.SparseFillIn = k.stFill
	sol.SparseAccuracyFailures = k.stAccFail
	sol.SparseSingularRefactors = k.stSingular
	sol.FTUpdates = k.stUpdates
	sol.FTSpikeNNZ = k.stSpikeNNZ
	sol.FTFallbacks = k.stFallbacks
}

// colEntries returns slot t's off-pivot column entries without copying.
func (k *ftKernel) colEntries(t int32) ([]int32, []float64) {
	if k.cowed[t] {
		return k.colRow[t], k.colVal[t]
	}
	if f := k.base; f != nil {
		return f.uRow[f.uStart[t]:f.uStart[t+1]], f.uVal[f.uStart[t]:f.uStart[t+1]]
	}
	return nil, nil
}

// materialize copies slot t's column into the kernel-owned arena so it can
// be edited (copy-on-write over the shared, immutable base factor).
func (k *ftKernel) materialize(t int32) {
	if k.cowed[t] {
		return
	}
	rs, vs := k.colEntries(t)
	k.colRow[t] = append(k.colRow[t][:0], rs...)
	k.colVal[t] = append(k.colVal[t][:0], vs...)
	k.cowed[t] = true
}

// installBase points the slot file at a fresh factor (nil: the slack
// identity) in O(m): identity order, no cowed columns, an empty eta file.
// The factor is immutable and may be shared (memoised on a
// Basis snapshot), which is exactly why columns are copy-on-write.
func (k *ftKernel) installBase(f *luFactor) {
	m := k.s.m
	k.base = f
	for t := 0; t < m; t++ {
		if f != nil {
			k.slotPiv[t] = f.piv[t]
			k.slotInv[t] = f.inv[t]
		} else {
			k.slotPiv[t] = int32(t)
			k.slotInv[t] = 1
		}
		k.cowed[t] = false
		k.order[t] = int32(t)
		k.orderPos[t] = int32(t)
		k.rowSlot[k.slotPiv[t]] = int32(t)
	}
	k.rowsBuilt = false
	k.ftRow = k.ftRow[:0]
	k.ftStart = k.ftStart[:1]
	k.ftRowIdx = k.ftRowIdx[:0]
	k.ftVal = k.ftVal[:0]
	k.updates = 0
	k.addedNnz = 0
	k.baseNnz = m
	if f != nil {
		k.baseNnz += len(f.lIdx) + len(f.uRow)
	}
}

// buildRows constructs the row-wise index of the U file; called lazily at
// the first update after a refactorisation and maintained incrementally
// from then on.
func (k *ftKernel) buildRows() {
	m := k.s.m
	for r := 0; r < m; r++ {
		k.rows[r] = k.rows[r][:0]
	}
	for t := 0; t < m; t++ {
		rs, vs := k.colEntries(int32(t))
		for q, r := range rs {
			k.rows[r] = append(k.rows[r], ftEntry{slot: int32(t), val: vs[q]})
		}
	}
	k.rowsBuilt = true
}

// removeSlotFromRow drops column slot t's record from row r's index
// (swap-remove: list order is scratch state, not numerics).
func (k *ftKernel) removeSlotFromRow(r, t int32) {
	list := k.rows[r]
	for q := range list {
		if list[q].slot == t {
			last := len(list) - 1
			list[q] = list[last]
			k.rows[r] = list[:last]
			return
		}
	}
}

// removeRowFromCol strips the entry at row r from column slot t,
// materialising the column first.
func (k *ftKernel) removeRowFromCol(t, r int32) {
	k.materialize(t)
	rs, vs := k.colRow[t], k.colVal[t]
	for q := range rs {
		if rs[q] == r {
			last := len(rs) - 1
			rs[q], vs[q] = rs[last], vs[last]
			k.colRow[t] = rs[:last]
			k.colVal[t] = vs[:last]
			return
		}
	}
}

// applyFTEtas runs the FT row etas forward (FTRAN order):
// v[r] -= sum m_j v[p_j].
func (k *ftKernel) applyFTEtas(v []float64) {
	for e := 0; e < len(k.ftRow); e++ {
		acc := v[k.ftRow[e]]
		for q := k.ftStart[e]; q < k.ftStart[e+1]; q++ {
			acc -= k.ftVal[q] * v[k.ftRowIdx[q]]
		}
		v[k.ftRow[e]] = acc
	}
}

// applyFTEtasT runs the transposed FT row etas backward (BTRAN order):
// v[p_j] -= m_j v[r].
func (k *ftKernel) applyFTEtasT(v []float64) {
	for e := len(k.ftRow) - 1; e >= 0; e-- {
		vr := v[k.ftRow[e]]
		if vr != 0 {
			for q := k.ftStart[e]; q < k.ftStart[e+1]; q++ {
				v[k.ftRowIdx[q]] -= k.ftVal[q] * vr
			}
		}
	}
}

// solveU runs the backward column-oriented U sweep over the slot file in
// elimination-position order.
func (k *ftKernel) solveU(v []float64) {
	for pos := len(k.order) - 1; pos >= 0; pos-- {
		t := k.order[pos]
		r := k.slotPiv[t]
		x := v[r] * k.slotInv[t]
		if x != 0 {
			rs, vs := k.colEntries(t)
			for q := range rs {
				v[rs[q]] -= vs[q] * x
			}
		}
		v[r] = x
	}
}

// solveUT runs the forward U^T sweep (BTRAN counterpart of solveU).
func (k *ftKernel) solveUT(v []float64) {
	for pos := 0; pos < len(k.order); pos++ {
		t := k.order[pos]
		r := k.slotPiv[t]
		acc := v[r]
		rs, vs := k.colEntries(t)
		for q := range rs {
			acc -= vs[q] * v[rs[q]]
		}
		v[r] = acc * k.slotInv[t]
	}
}

// ftran overwrites v with B^-1 v: L, the FT row etas, then the updated U.
func (k *ftKernel) ftran(v []float64) {
	if k.base != nil {
		k.base.ftranL(v)
	}
	k.applyFTEtas(v)
	k.solveU(v)
}

// btran overwrites v with B^-T v: the exact transpose of ftran, reversed.
func (k *ftKernel) btran(v []float64) {
	k.solveUT(v)
	k.applyFTEtasT(v)
	if k.base != nil {
		k.base.btranLT(v)
	}
}

func (k *ftKernel) loadSlack() {
	k.rowValidFor = -1
	k.installBase(nil)
}

func (k *ftKernel) column(j int) []float64 {
	k.scatter(k.colScratch, j)
	k.ftran(k.colScratch)
	return k.colScratch
}

// row assembles tableau row i: rho = B^-T e_i gathered across the CSR rows
// rho touches.
func (k *ftKernel) row(i int) []float64 {
	s := k.s
	rho := k.rho
	for r := range rho {
		rho[r] = 0
	}
	rho[i] = 1
	k.btran(rho)
	out := k.rowScratch
	for j := range out {
		out[j] = 0
	}
	for r := 0; r < s.m; r++ {
		yr := rho[r]
		if yr == 0 {
			continue
		}
		for t := k.crStart[r]; t < k.crStart[r+1]; t++ {
			out[k.crCol[t]] += yr * k.crVal[t]
		}
		out[s.nStruct+r] = yr
	}
	k.rowValidFor = i
	return out
}

// priceUpdate is the partial pricing update: d (and the perturbation row)
// change only at the columns where the pivot row is nonzero. alpha_j * inv is the dense kernel's scaled
// pivot row entry.
func (k *ftKernel) priceUpdate(alpha []float64, inv float64, enter int) {
	s := k.s
	if f := s.d[enter]; f != 0 {
		for j := 0; j < s.nCols; j++ {
			if a := alpha[j]; a != 0 {
				s.d[j] -= f * (a * inv)
			}
		}
		s.d[enter] = 0
	}
	if s.usePert {
		if f := s.pert[enter]; f != 0 {
			for j := 0; j < s.nCols; j++ {
				if a := alpha[j]; a != 0 {
					s.pert[j] -= f * (a * inv)
				}
			}
			s.pert[enter] = 0
		}
	}
}

// computeRHSBar recomputes rhsBar = B^-1 b through the current factor.
func (k *ftKernel) computeRHSBar() {
	copy(k.s.rhsBar, k.s.rhs)
	k.ftran(k.s.rhsBar)
}

// priceInto recomputes a transformed cost row from its pristine form:
// out_j = c_j - y . A_j with B^T y = c_B, exact zeros on basic columns.
func (k *ftKernel) priceInto(out, c []float64) {
	s := k.s
	y := k.work
	for r := 0; r < s.m; r++ {
		y[r] = c[s.basis[r]]
	}
	k.btran(y)
	copy(out, c[:s.nStruct])
	for r := 0; r < s.m; r++ {
		yr := y[r]
		if yr != 0 {
			for t := k.crStart[r]; t < k.crStart[r+1]; t++ {
				out[k.crCol[t]] -= yr * k.crVal[t]
			}
		}
		out[s.nStruct+r] = c[s.nStruct+r] - yr
	}
	for r := 0; r < s.m; r++ {
		out[s.basis[r]] = 0
	}
}

func (k *ftKernel) computeD()    { k.priceInto(k.s.d, k.s.obj) }
func (k *ftKernel) computePert() { k.priceInto(k.s.pert, k.s.pert0) }

// computeXB mirrors the dense kernel: start from rhsBar and subtract each
// nonbasic column at a nonzero resting value, columns in ascending order.
func (k *ftKernel) computeXB() {
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
		k.scatter(k.colScratch, j)
		k.ftran(k.colScratch)
		col := k.colScratch
		for i := 0; i < s.m; i++ {
			if aij := col[i]; aij != 0 {
				s.xB[i] -= aij * v
			}
		}
	}
}

// refactorize rebuilds the representation for a warm-start basis and
// installs it as the FT base. The elimination — fill-reducing order,
// structural pivot preferences with largest-|entry| fallback — is a pure
// function of the matrix and the basis set, so every consumer of a
// snapshot computes an identical factor; the result is memoised on the
// snapshot so sibling branch-and-bound nodes and speculative workers
// exchange the factor instead of re-eliminating.
func (k *ftKernel) refactorize(bas *Basis) bool {
	s := k.s
	k.rowValidFor = -1

	if f := bas.factor.Load(); f != nil && f.sig == k.sig {
		refactorWarmMemoC.Add(1)
		copy(s.basis, f.perm)
		k.installBase(f)
		k.installStats(f)
		return true
	}

	// Build into the kernel-owned scratch factor (its append-grown arrays
	// amortise across solves), then clone exact-size arrays for the memo:
	// the snapshot outlives this solver, and trimming removes the capacity
	// slack growslice doubling would otherwise retain per node.
	if k.buildTmp == nil {
		k.buildTmp = &luFactor{}
	}
	refactorWarmBuiltC.Add(1)
	if ok, _ := k.refactorInto(k.buildTmp, false); !ok {
		return false // singular within tolerance: caller solves cold
	}
	f := k.buildTmp.clone()
	bas.factor.Store(f)
	copy(s.basis, f.perm)
	k.installBase(f)
	k.installStats(f)
	return true
}

// installStats records a factor install and recomputes the derived
// vectors (rhsBar and reduced costs) from pristine data. Memoised and
// freshly built factors are byte-identical, so the recorded statistics are
// independent of memo hits — which keeps lp.sparse.* counters bit-equal
// between sequential and speculative runs.
func (k *ftKernel) installStats(f *luFactor) {
	k.stRefactor++
	k.stFill += f.fill
	k.computeRHSBar()
	k.computeD()
}

// midRefactor rebuilds the factor mid-solve and installs it as a fresh FT
// base, collapsing the update files. The pinned-row elimination is tried
// first — keeping labels in place costs nothing when it works — but when
// the current assignment forces a too-small diagonal the rebuild falls
// back to free pivot selection and relabels: the heading is re-derived
// from the new pivot assignment, exactly like a warm-start refactorize,
// and every derived vector below is recomputed in the new order. Returns
// false only when even the free elimination goes singular; the
// representation is then untouched, and the periodic triggers back off
// for singularRetryInterval pivots.
func (k *ftKernel) midRefactor() bool {
	s := k.s
	for r := 0; r < s.m; r++ {
		k.rowOf[s.basis[r]] = int32(r)
	}
	dst := k.midFactor[k.midNext]
	if dst == nil {
		dst = &luFactor{}
		k.midFactor[k.midNext] = dst
	}
	copy(k.xbScratch, s.xB)
	ok, pinnedFailed := k.refactorInto(dst, true)
	if pinnedFailed {
		k.stSingular++
	}
	if !ok {
		k.rebuildCooloff = singularRetryInterval
		return false
	}
	if pinnedFailed {
		// Free elimination moved the row labels. Carry each basic
		// variable's incrementally maintained value to its new row first
		// (rowOf still holds the old assignment), so the accuracy check
		// below keeps comparing like with like, then re-derive the basis
		// heading from the new pivot assignment.
		for r := 0; r < s.m; r++ {
			k.work[r] = s.xB[k.rowOf[dst.perm[r]]]
		}
		copy(k.xbScratch, k.work)
		copy(s.basis, dst.perm)
	}
	k.rebuildCooloff = 0
	k.midNext ^= 1
	k.installBase(dst)
	k.rowValidFor = -1
	k.stRefactor++
	k.stFill += dst.fill
	k.computeRHSBar()
	k.computeD()
	if s.usePert {
		k.computePert()
	}
	// Accuracy check: the incrementally maintained basic values
	// (snapshotted above, permuted if the rebuild relabelled) against their
	// recomputation through the fresh factor.
	k.computeXB()
	for i := 0; i < s.m; i++ {
		if math.Abs(k.xbScratch[i]-s.xB[i]) > refactorAccTol {
			k.stAccFail++
			break
		}
	}
	return true
}

// ftUpdate applies the Forrest-Tomlin exchange at the leaving row for the
// entering column. Returns false (state rolled back, representation
// untouched) when the new diagonal is numerically unacceptable.
func (k *ftKernel) ftUpdate(leave, enter int) bool {
	s := k.s
	m := s.m

	// Spike w = (FT etas) L^-1 a_enter: the entering column transformed up
	// to, but not through, the U file. colScratch holds the fully
	// transformed column the ratio test used and must stay intact for the
	// rhsBar sweep, hence the dedicated scratch.
	w := k.wScratch
	k.scatter(w, enter)
	if k.base != nil {
		k.base.ftranL(w)
	}
	k.applyFTEtas(w)

	if !k.rowsBuilt {
		k.buildRows()
	}

	t0 := k.rowSlot[leave]
	pos0 := int(k.orderPos[t0])

	// Row `leave`'s stored U entries, gathered by elimination position
	// (the triangularity invariant puts them all past pos0), then
	// eliminated left to right. Each step records one multiplier pair of
	// the composite row eta, folds the pivot row's spike entry into the
	// new diagonal mu, and propagates fill strictly rightward through the
	// pivot row's index entries.
	ps := k.posScratch
	rlist := k.rows[int32(leave)]
	for _, e := range rlist {
		ps[k.orderPos[e.slot]] = e.val
	}

	mu := w[leave]
	etaBase := len(k.ftRowIdx)
	for pos := pos0 + 1; pos < m; pos++ {
		val := ps[pos]
		if val == 0 {
			continue
		}
		ps[pos] = 0
		t := k.order[pos]
		coef := val * k.slotInv[t]
		p := k.slotPiv[t]
		k.ftRowIdx = append(k.ftRowIdx, p)
		k.ftVal = append(k.ftVal, coef)
		mu -= coef * w[p]
		for _, e := range k.rows[p] {
			if e.slot == t0 {
				continue // the column being replaced by the spike
			}
			ps[k.orderPos[e.slot]] -= coef * e.val
		}
	}

	if math.Abs(mu) <= pivTol {
		k.ftRowIdx = k.ftRowIdx[:etaBase]
		k.ftVal = k.ftVal[:etaBase]
		return false
	}

	// Commit. Strip row `leave` from the columns that stored it (the
	// elimination zeroed them; the eta carries the arithmetic), drop the
	// replaced column from the row index, and rotate it out of the order.
	for _, e := range rlist {
		k.removeRowFromCol(e.slot, int32(leave))
	}
	k.rows[int32(leave)] = rlist[:0]
	oldRows, _ := k.colEntries(t0)
	for _, r := range oldRows {
		k.removeSlotFromRow(r, t0)
	}
	copy(k.order[pos0:], k.order[pos0+1:])
	k.order[m-1] = t0
	for pos := pos0; pos < m; pos++ {
		k.orderPos[k.order[pos]] = int32(pos)
	}

	// The spike takes the freed slot at the last position: same pivot row
	// (labels never move), diagonal mu, off-pivot entries w's nonzeros in
	// ascending row order.
	k.slotInv[t0] = 1 / mu
	rs := k.colRow[t0][:0]
	vs := k.colVal[t0][:0]
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		if f := w[i]; f != 0 {
			rs = append(rs, int32(i))
			vs = append(vs, f)
			k.rows[i] = append(k.rows[i], ftEntry{slot: t0, val: f})
		}
	}
	k.colRow[t0], k.colVal[t0] = rs, vs
	k.cowed[t0] = true

	etaLen := len(k.ftRowIdx) - etaBase
	if etaLen > 0 {
		k.ftRow = append(k.ftRow, int32(leave))
		k.ftStart = append(k.ftStart, int32(len(k.ftRowIdx)))
	}

	k.updates++
	k.stUpdates++
	k.stSpikeNNZ += len(rs)
	k.addedNnz += len(rs) + etaLen
	ftSpikeH.Record(int64(len(rs)))
	return true
}

func (k *ftKernel) pivot(leave, enter int) bool {
	s := k.s
	// The reduced-cost update needs row `leave` of the pre-pivot tableau.
	// The dual simplex has just fetched it (row invalidation tracking makes
	// that reuse exact); a primal pivot computes it here, against the
	// representation as it stands before this exchange.
	if k.rowValidFor != leave {
		k.row(leave)
	}
	alpha := k.rowScratch
	col := k.colScratch // FTRAN'd entering column, fetched by the pivot loop

	if !k.ftUpdate(leave, enter) {
		// Rejected update: refactorise for the post-pivot basis (the Solver
		// has already exchanged it) — that recomputes rhsBar, the cost rows
		// and xB from pristine data, so the incremental sweeps below are
		// skipped. If even the rescue is singular, no representation of the
		// new basis exists: report failure and let the pivot loop stop.
		k.rowValidFor = -1
		refactorRejectedC.Add(1)
		if !k.midRefactor() {
			k.stFallbacks++
			return false
		}
		return true
	}

	// Apply the pivot to rhsBar with the dense kernel's arithmetic.
	inv := 1 / col[leave]
	rb := s.rhsBar[leave] * inv
	for i := 0; i < s.m; i++ {
		if i == leave {
			continue
		}
		if f := col[i]; f != 0 {
			s.rhsBar[i] -= f * rb
		}
	}
	s.rhsBar[leave] = rb
	k.priceUpdate(alpha, inv, enter)
	k.rowValidFor = -1

	// Periodic refactorisation: update count (long default interval, the
	// override replaces it) or accumulated fill crossing half the pristine
	// factored nonzeros. A recent singular rebuild backs the triggers off
	// for a few pivots so failed elimination attempts stay amortised.
	if k.rebuildCooloff > 0 {
		k.rebuildCooloff--
	} else if k.updates > 0 {
		every := defaultFTRefactorEvery
		if s.refactorEveryOverride > 0 {
			every = s.refactorEveryOverride
		}
		if k.updates >= every {
			refactorCadenceC.Add(1)
			k.midRefactor()
		} else if 2*k.addedNnz >= k.baseNnz+ftFillSlack {
			refactorFillC.Add(1)
			k.midRefactor()
		}
	}
	return true
}
