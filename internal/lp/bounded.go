package lp

// Bounded-variable simplex with warm starting.
//
// Solver keeps the problem in computational standard form —
//
//	minimise c.x  subject to  Ax + s = b,  lo <= (x,s) <= hi
//
// with one slack per row whose bounds encode the relation (LE: s in [0,inf),
// GE: s in (-inf,0], EQ: s = 0). Variable bounds are data, not rows, so a
// branch-and-bound child — which differs from the root only in variable
// bounds — costs no extra tableau columns, and no artificial variables
// exist at all. The same Solver value is reused for every node: bound
// arrays, status flags and the kernel's scratch are allocated once and
// overwritten per solve (a per-solver arena).
//
// The pivot loops are linear-algebra agnostic: they read reduced costs from
// Solver.d, fetch tableau columns/rows from a kernel, and tell the kernel
// when a basis exchange happened. The one production kernel is ftKernel
// (forrest_tomlin.go, sparse.go), the sparse revised simplex: compressed
// sparse columns and rows, an LU factorisation of the basis kept current by
// Forrest-Tomlin updates between refactorisations, and partial (sparse)
// pricing updates of the reduced-cost row. NewSolver builds it. The tests
// cross-check it against a dense Gauss-Jordan tableau kernel that
// implements the same contract (dense_oracle_test.go).
//
// All pivot *selection* (entering/leaving rules, tie-breaking, Bland
// switching, the bound-flipping dual ratio test, the deterministic cost
// perturbation) lives in the Solver and is shared verbatim by every
// kernel, which is what keeps their pivot sequences aligned.
//
// Two entry points:
//
//   - SolveBounded: cold solve. Starts from the all-slack basis, restores
//     primal feasibility with a dual simplex (no artificials, no phase-1
//     objective), then runs the bounded primal simplex.
//   - SolveDual: warm solve from a Basis snapshot. The kernel state is
//     rebuilt by canonical refactorisation (a pure function of the basis
//     set, so every caller — sequential or speculative worker — computes
//     bit-identical state), and the dual simplex repairs the handful of
//     bound violations the caller introduced. An optimal basis stays dual
//     feasible under any bound change, which is why a branch-and-bound
//     child typically re-solves in a few pivots.
//
// Pivot selection is Dantzig pricing with smallest-index tie-breaks,
// switching to Bland's rule if the iteration count suggests cycling; the
// switch counter is reset at the start of every solve, so a warm-started
// re-solve never inherits the previous solve's cycling suspicion.

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

const (
	feasTol = 1e-7 // primal feasibility tolerance on bounds
	dualTol = 1e-9 // reduced-cost tolerance
	pivTol  = 1e-9 // smallest acceptable pivot element
)

// Basis is a compact snapshot of a simplex basis: which column is basic in
// each row and, for every nonbasic column, which of its bounds it sits at.
// It is the whole warm-start state — a few kilobytes, cheap enough to attach
// to every branch-and-bound node — and is immutable once taken.
//
// When the FT kernel warm-starts from a Basis it memoises the canonical
// LU factorisation of the basis on the snapshot itself, so sibling
// branch-and-bound nodes (and speculative workers, which share the snapshot
// pointer) exchange the LU factor instead of each refactorising from
// scratch. The factor is a pure function of the basis set, so whether a
// consumer hits or misses the memo is invisible in the results.
type Basis struct {
	Basic   []int32 // len m: column basic in row r
	AtUpper []bool  // len nCols: nonbasic column rests at its upper bound

	// factor memoises the canonical LU factorisation of this basis set
	// (FT kernel only). Concurrent warm starts may race to fill it;
	// both compute identical content, so either store is fine.
	factor atomic.Pointer[luFactor]
}

// Clone returns a deep copy (sharing the immutable factor memo, if any).
func (b *Basis) Clone() *Basis {
	nb := &Basis{
		Basic:   append([]int32(nil), b.Basic...),
		AtUpper: append([]bool(nil), b.AtUpper...),
	}
	nb.factor.Store(b.factor.Load())
	return nb
}

// DropFactor releases the memoised LU factor, if any. Callers that know a
// snapshot will not be warm-started again (e.g. branch and bound after both
// children of a node were explored) can call it to bound the memory held by
// open-node snapshots; a subsequent warm start simply refactorises.
func (b *Basis) DropFactor() {
	if b != nil {
		b.factor.Store(nil)
	}
}

// kernel is the linear-algebra engine under the bounded simplex: it
// maintains a representation of B^-1 applied to the problem matrix and
// serves tableau columns and rows on demand. The Solver owns all pivot
// selection and all basis bookkeeping (basis, inBasis, atUpper, xB); the
// kernel owns the matrix representation plus the derived vectors rhsBar,
// d and pert, which it must keep in sync at every pivot.
type kernel interface {
	// reshape rebuilds the kernel for the solver's current rows (s.cons,
	// already sized by shapeRows), leaving it in the state of a freshly
	// built one: the pristine matrix reloaded, the slack basis installed.
	// The new matrix signature matches no memoised factor of another row
	// set, so the next warm start refactorises from pristine data.
	reshape()
	// beginSolve resets per-solve statistics.
	beginSolve()
	// loadSlack installs the all-slack basis (B = I). Solver bookkeeping
	// (basis/inBasis/atUpper/rhsBar/d) has already been reset by the caller.
	loadSlack()
	// refactorize rebuilds the representation for the basis set in bas,
	// writes the canonical row assignment into s.basis, and recomputes
	// rhsBar and d. Returns false when the basis is numerically singular.
	// Solver bookkeeping (inBasis) is already consistent with bas.
	refactorize(bas *Basis) bool
	// column returns B^-1 A_j as a dense slice of length m, valid until the
	// next column, computeXB, pivot or refactorize call.
	column(j int) []float64
	// row returns row i of B^-1 [A|I] as a dense slice of length nCols,
	// valid until the next row, pivot or refactorize call (column calls do
	// not invalidate it).
	row(i int) []float64
	// pivot applies the basis exchange (leaving row, entering column) to
	// the representation, rhsBar, d and (when active) pert. The Solver has
	// already updated basis/inBasis/atUpper/xB, and has fetched column(enter)
	// since the previous pivot. It returns false when the kernel cannot
	// represent the new basis (numerically singular); the representation is
	// then stale and the pivot loop must stop.
	pivot(leave, enter int) bool
	// computeXB recomputes s.xB from rhsBar and the nonbasic resting values.
	computeXB()
	// solveStats copies per-solve kernel statistics into the Solution.
	solveStats(sol *Solution)
}

// Solver solves a fixed constraint system under varying variable bounds,
// reusing all scratch state across solves.
type Solver struct {
	m       int // constraint rows
	nStruct int // structural variables
	nCols   int // nStruct + m (one slack per row)

	obj     []float64 // len nCols: structural costs, zeros for slacks
	rhs     []float64 // len m
	slackLo []float64 // len m: slack bounds encoding the row relation
	slackHi []float64

	// Row-mutation state (see append.go). cons is the solver-owned
	// constraint list — a copy taken at construction, rewritten past
	// baseRows by ReplaceRows — and objStruct the structural objective,
	// both retained so the solve state can be rebuilt after a row change;
	// baseRows is the construction-time row count, the floor ReplaceRows
	// keeps.
	cons      []Constraint
	objStruct []float64
	baseRows  int

	// Scratch arena, sized by shapeRows for the current rows and
	// overwritten per solve.
	d       []float64 // len nCols: reduced costs of the current basis
	rhsBar  []float64 // len m: B^-1 b, maintained alongside the pivots
	xB      []float64 // len m: value of the basic variable of each row
	basis   []int32   // len m
	atUpper []bool    // len nCols
	inBasis []bool    // len nCols
	lo, hi  []float64 // len nCols: bounds of the current solve

	k kernel // linear-algebra engine

	// pert is a second reduced-cost row holding a tiny deterministic cost
	// perturbation, active only while usePert is set (the dual simplex
	// phases). It breaks dual degeneracy: columns whose true reduced cost is
	// zero — the hundreds of cost-free assignment binaries in the wavelength
	// models — otherwise all tie at ratio zero and the dual walk makes no
	// objective progress, cycling until the Bland guard crawls it home. The
	// row transforms under pivots exactly like the true cost row, the true
	// row is never touched, and the perturbation is switched off before the
	// primal clean-up certifies the true optimum. pert0 keeps the initial
	// perturbation pattern so the FT kernel can rebuild the transformed
	// row exactly at a refactorisation (pert = pert0 - y'.A with
	// B'y' = pert0_B).
	pert    []float64
	pert0   []float64
	usePert bool

	// blandAfterOverride, when positive, replaces the computed Bland-switch
	// iteration threshold. Test hook for the anti-cycling path; note the
	// threshold applies per solve — every SolveBounded/SolveDual call
	// starts a fresh iteration counter, so a warm-started re-solve never
	// inherits the previous solve's cycling suspicion.
	blandAfterOverride int

	// refactorEveryOverride, when positive, replaces the FT kernel's
	// default refactorisation interval. Test hook for exercising
	// refactorisation-boundary behaviour.
	refactorEveryOverride int

	// interrupt, when non-nil, is polled between pivots (at the deadline
	// cadence): once it is closed, the current and every subsequent solve
	// stops with IterLimit, exactly as if the deadline had passed. Set via
	// SetInterrupt; used to propagate context cancellation into
	// long-running pivot loops.
	interrupt <-chan struct{}

	// solveStart is stamped at each solve entry and consumed by finish.
	solveStart time.Time
}

// SetInterrupt installs a cancellation channel (typically a
// context.Context's Done channel) that the pivot loop polls alongside the
// deadline. A nil channel disables the check.
func (s *Solver) SetInterrupt(ch <-chan struct{}) { s.interrupt = ch }

// NewSolver validates the problem and builds the reusable solve state with
// the Forrest-Tomlin sparse revised-simplex kernel (see forrest_tomlin.go),
// the default engine.
func NewSolver(p *Problem) (*Solver, error) {
	s, err := newSolverCore(p)
	if err != nil {
		return nil, err
	}
	s.k = newFTKernel(s)
	return s, nil
}

// newSolverCore builds the kernel-independent solve state.
func newSolverCore(p *Problem) (*Solver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{
		nStruct:   p.NumVars,
		cons:      append([]Constraint(nil), p.Constraints...),
		baseRows:  len(p.Constraints),
		objStruct: make([]float64, p.NumVars),
	}
	if p.Objective != nil {
		copy(s.objStruct, p.Objective)
	}
	s.shapeRows()
	return s, nil
}

// shapeRows sizes the row-dimensioned solve state for the current
// constraint list and loads the row data (right-hand sides, slack bounds,
// the objective over structurals and slacks). Buffers of the previous
// shape are reused where they are large enough; resize zeroes them, so
// the state is the same as freshly allocated.
func (s *Solver) shapeRows() {
	m := len(s.cons)
	s.m = m
	s.nCols = s.nStruct + m
	s.rhs = resize(s.rhs, m)
	s.slackLo = resize(s.slackLo, m)
	s.slackHi = resize(s.slackHi, m)
	for i := range s.cons {
		c := &s.cons[i]
		s.rhs[i] = c.RHS
		switch c.Rel {
		case LE:
			s.slackLo[i], s.slackHi[i] = 0, math.Inf(1)
		case GE:
			s.slackLo[i], s.slackHi[i] = math.Inf(-1), 0
		case EQ:
			s.slackLo[i], s.slackHi[i] = 0, 0
		}
	}
	s.obj = resize(s.obj, s.nCols)
	copy(s.obj, s.objStruct)
	s.rhsBar = resize(s.rhsBar, m)
	s.xB = resize(s.xB, m)
	s.basis = resize(s.basis, m)
	s.d = resize(s.d, s.nCols)
	s.atUpper = resize(s.atUpper, s.nCols)
	s.inBasis = resize(s.inBasis, s.nCols)
	s.lo = resize(s.lo, s.nCols)
	s.hi = resize(s.hi, s.nCols)
	s.pert = resize(s.pert, s.nCols)
	s.pert0 = resize(s.pert0, s.nCols)
}

// resize returns b with length n and every element zero, reusing its
// array when the capacity allows — a row change rebuilds the solve state
// into the previous shape's buffers instead of allocating a fresh set.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// setBounds installs the solve's variable bounds (nil means the package
// default [0, inf) for every structural variable) and reports a variable
// whose bounds cross, which proves infeasibility outright.
func (s *Solver) setBounds(lo, hi []float64) (feasible bool, err error) {
	if lo != nil && len(lo) != s.nStruct {
		return false, fmt.Errorf("lp: lower bounds have length %d, want %d", len(lo), s.nStruct)
	}
	if hi != nil && len(hi) != s.nStruct {
		return false, fmt.Errorf("lp: upper bounds have length %d, want %d", len(hi), s.nStruct)
	}
	for j := 0; j < s.nStruct; j++ {
		l, h := 0.0, math.Inf(1)
		if lo != nil {
			l = lo[j]
		}
		if hi != nil {
			h = hi[j]
		}
		if math.IsInf(l, -1) {
			return false, fmt.Errorf("lp: variable %d has no finite lower bound", j)
		}
		s.lo[j], s.hi[j] = l, h
		if l > h+feasTol {
			return false, nil
		}
	}
	for i := 0; i < s.m; i++ {
		s.lo[s.nStruct+i], s.hi[s.nStruct+i] = s.slackLo[i], s.slackHi[i]
	}
	return true, nil
}

// boundVal returns the resting value of nonbasic column j.
func (s *Solver) boundVal(j int) float64 {
	if s.atUpper[j] {
		return s.hi[j]
	}
	return s.lo[j]
}

// loadSlackBasis installs the all-slack basis: every structural variable
// rests at its lower bound (or its upper bound when only that is finite),
// reduced costs are the raw objective, and the kernel holds the pristine
// problem under B = I.
func (s *Solver) loadSlackBasis() {
	for i := 0; i < s.m; i++ {
		s.basis[i] = int32(s.nStruct + i)
	}
	copy(s.d, s.obj)
	for j := 0; j < s.nCols; j++ {
		s.atUpper[j] = math.IsInf(s.lo[j], -1)
		s.inBasis[j] = false
	}
	for i := 0; i < s.m; i++ {
		s.inBasis[s.nStruct+i] = true
		s.atUpper[s.nStruct+i] = false
	}
	s.initRHSBar()
	s.k.loadSlack()
	s.k.computeXB()
}

// initRHSBar resets rhsBar to the pristine right-hand side; subsequent
// pivots keep it equal to B^-1 b.
func (s *Solver) initRHSBar() {
	copy(s.rhsBar, s.rhs)
}

// pertEps scales the dual-degeneracy-breaking cost perturbation: far above
// dualTol so perturbed reduced costs register as nonzero, far below the unit
// cost scale so the perturbed optimum sits a primal clean-up away from the
// true one.
const pertEps = 1e-7

// initPert arms the perturbation row for the current basis/bound statuses:
// +eta for an at-lower column, -eta for an at-upper column (preserving dual
// feasibility by construction), zero for basic and fixed columns. The
// magnitudes vary deterministically by column index so ratio ties break.
func (s *Solver) initPert() {
	s.usePert = true
	for j := 0; j < s.nCols; j++ {
		switch {
		case s.inBasis[j] || s.lo[j] == s.hi[j]:
			s.pert[j] = 0
		case s.atUpper[j]:
			s.pert[j] = -pertEps * float64(1+j%61)
		default:
			s.pert[j] = pertEps * float64(1+j%61)
		}
	}
	copy(s.pert0, s.pert)
}

// refactorise rebuilds the solve state for the given basis by canonical
// refactorisation: the kernel eliminates basic columns in ascending column
// order with partial (largest-magnitude, then lowest-row) pivoting. The
// result is a pure function of the basis set and the pristine problem —
// independent of the pivot history that produced the basis — which is what
// keeps warm-started solves bit-identical between the sequential search and
// speculative workers. Returns false if the basis is numerically singular.
func (s *Solver) refactorise(bas *Basis) bool {
	if len(bas.Basic) != s.m || len(bas.AtUpper) != s.nCols {
		return false
	}
	for j := 0; j < s.nCols; j++ {
		s.inBasis[j] = false
	}
	for _, c := range bas.Basic {
		if c < 0 || int(c) >= s.nCols || s.inBasis[c] {
			return false
		}
		s.inBasis[c] = true
	}
	if !s.k.refactorize(bas) {
		return false
	}
	copy(s.atUpper, bas.AtUpper)
	// A nonbasic column whose recorded bound is infinite (a GE slack
	// recorded at a -inf lower, say) cannot rest there; snap it to the
	// finite side.
	for j := 0; j < s.nCols; j++ {
		if s.inBasis[j] {
			continue
		}
		if s.atUpper[j] && math.IsInf(s.hi[j], 1) {
			s.atUpper[j] = false
		}
		if !s.atUpper[j] && math.IsInf(s.lo[j], -1) {
			s.atUpper[j] = true
		}
	}
	s.k.computeXB()
	return true
}

// Basis snapshots the basis of the most recent solve. The snapshot is
// self-contained: mutating the Solver afterwards does not affect it.
func (s *Solver) Basis() *Basis {
	return &Basis{
		Basic:   append([]int32(nil), s.basis...),
		AtUpper: append([]bool(nil), s.atUpper...),
	}
}

// iterState carries the shared pivot-loop bookkeeping of one solve.
type iterState struct {
	deadline    time.Time
	interrupt   <-chan struct{}
	maxIter     int
	blandAfter  int
	iter        int
	pivots      int
	blandPivots int
	// deadlineHit: the last step() returned false because the wall-clock
	// budget was exhausted — the deadline passed or the interrupt channel
	// closed — rather than the pivot cap. Callers use it to tell "out of
	// time" from "cycling suspicion".
	deadlineHit bool
}

func (s *Solver) newIterState(deadline time.Time) iterState {
	st := iterState{
		deadline:   deadline,
		interrupt:  s.interrupt,
		maxIter:    200 * (s.m + s.nCols + 10),
		blandAfter: blandTriggerFactor * (s.m + s.nCols),
	}
	if s.blandAfterOverride > 0 {
		st.blandAfter = s.blandAfterOverride
	}
	return st
}

// step advances the shared iteration accounting and reports whether the
// loop may continue (false: iteration limit, deadline, or interrupt).
func (st *iterState) step() bool {
	if st.iter >= st.maxIter {
		return false
	}
	if st.iter%16 == 0 {
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			st.deadlineHit = true
			return false
		}
		if st.interrupt != nil {
			select {
			case <-st.interrupt:
				st.deadlineHit = true
				return false
			default:
			}
		}
	}
	st.iter++
	return true
}

func (st *iterState) bland() bool { return st.iter > st.blandAfter }

// primalSimplex runs the bounded primal method from the current (primal
// feasible) state until optimality, unboundedness, or a limit.
func (s *Solver) primalSimplex(st *iterState) Status {
	for {
		if !st.step() {
			return IterLimit
		}
		bland := st.bland()
		// Entering column: most negative "effective" reduced cost — d_j
		// for an at-lower column (wants to rise), -d_j for an at-upper
		// column (wants to fall).
		enter, bestScore := -1, dualTol
		for j := 0; j < s.nCols; j++ {
			if s.inBasis[j] || s.lo[j] == s.hi[j] {
				continue // fixed columns can never move
			}
			d := s.d[j]
			var score float64
			if s.atUpper[j] {
				score = d
			} else {
				score = -d
			}
			if score > bestScore {
				enter, bestScore = j, score
				if bland {
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		sigma := 1.0
		if s.atUpper[enter] {
			sigma = -1
		}
		col := s.k.column(enter)
		// Ratio test: the entering variable moves by sigma*t, t >= 0.
		tMax := s.hi[enter] - s.lo[enter] // own-range bound flip
		leave, leaveToUpper := -1, false
		for i := 0; i < s.m; i++ {
			g := col[i] * sigma
			bi := s.basis[i]
			var t float64
			var toUpper bool
			switch {
			case g > eps: // basic value decreases toward its lower bound
				if math.IsInf(s.lo[bi], -1) {
					continue
				}
				t = (s.xB[i] - s.lo[bi]) / g
			case g < -eps: // basic value increases toward its upper bound
				if math.IsInf(s.hi[bi], 1) {
					continue
				}
				t = (s.hi[bi] - s.xB[i]) / -g
				toUpper = true
			default:
				continue
			}
			if t < 0 {
				t = 0 // tolerance slack: never step backwards
			}
			// Within the eps tie band prefer the larger |pivot| (numerical
			// stability and faster escape from degenerate vertices), then
			// the smaller basis column index; under Bland, strictly the
			// smallest index (the anti-cycling guarantee).
			if t < tMax-eps {
				tMax, leave, leaveToUpper = t, i, toUpper
			} else if t < tMax+eps && leave >= 0 {
				better := false
				if bland {
					better = int(s.basis[i]) < int(s.basis[leave])
				} else {
					gi, gl := math.Abs(col[i]), math.Abs(col[leave])
					better = gi > gl+eps || (gi > gl-eps && int(s.basis[i]) < int(s.basis[leave]))
				}
				if better {
					tMax, leave, leaveToUpper = t, i, toUpper
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		st.pivots++
		if bland {
			st.blandPivots++
		}
		if leave < 0 {
			// Bound flip: the entering variable crosses its whole range.
			delta := sigma * tMax
			for i := 0; i < s.m; i++ {
				if aij := col[i]; aij != 0 {
					s.xB[i] -= aij * delta
				}
			}
			s.atUpper[enter] = !s.atUpper[enter]
			continue
		}
		enterVal := s.boundVal(enter) + sigma*tMax
		delta := sigma * tMax
		for i := 0; i < s.m; i++ {
			if i == leave {
				continue
			}
			if aij := col[i]; aij != 0 {
				s.xB[i] -= aij * delta
			}
		}
		out := s.basis[leave]
		s.inBasis[out] = false
		s.atUpper[out] = leaveToUpper
		s.inBasis[enter] = true
		s.basis[leave] = int32(enter)
		s.xB[leave] = enterVal
		if !s.k.pivot(leave, enter) {
			return IterLimit
		}
	}
}

// dualSimplex runs the bounded dual method from the current (dual feasible)
// state until primal feasibility — i.e. optimality — or proven primal
// infeasibility, or a limit. With zeroCosts the ratio test treats every
// reduced cost as zero, turning the routine into a pure feasibility search
// (the cold solve's phase 1); the reduced-cost row is still updated by each
// pivot so the true objective is ready for phase 2.
func (s *Solver) dualSimplex(st *iterState, zeroCosts bool) Status {
	for {
		if !st.step() {
			return IterLimit
		}
		// The cost perturbation already breaks the dual ratio ties that make
		// cycling possible — every pivot then strictly improves the perturbed
		// dual objective — so the Bland switch (whose smallest-index rule
		// abandons the large-|pivot| selection and crawls on degenerate
		// models) stays off while it is active.
		bland := st.bland() && !s.usePert
		// Leaving row: largest bound violation (Bland: lowest row index).
		leave, worst := -1, feasTol
		var target float64 // the bound the leaving variable is pushed to
		for i := 0; i < s.m; i++ {
			bi := s.basis[i]
			if v := s.lo[bi] - s.xB[i]; v > worst {
				leave, worst, target = i, v, s.lo[bi]
				if bland {
					break
				}
			}
			if v := s.xB[i] - s.hi[bi]; v > worst {
				leave, worst, target = i, v, s.hi[bi]
				if bland {
					break
				}
			}
		}
		if leave < 0 {
			return Optimal
		}
		need := s.xB[leave] - target // entering delta must satisfy delta*a = need
		row := s.k.row(leave)
		// Entering column via the bound-flipping ratio test. The min-ratio
		// column pivots in — unless its own range cannot absorb the whole
		// violation, in which case it flips to its other bound (shrinking the
		// violation by |a|*range, a strict improvement) and the scan repeats
		// on the remainder. Without the flips a boxed column — a binary, say —
		// would enter the basis beyond its upper bound, manufacturing a fresh
		// violation for the next iteration to chase; on 0/1-dense models that
		// churn dominates the solve. Flips preserve dual feasibility because
		// every flipped column's ratio is no worse than the eventual pivot's,
		// so the pivot's cost update restores their sign condition.
		enter := -1
		for {
			enter = -1
			bestRatio := math.Inf(1)
			for j := 0; j < s.nCols; j++ {
				if s.inBasis[j] || s.lo[j] == s.hi[j] {
					continue // fixed columns can never compensate
				}
				aij := row[j]
				if math.Abs(aij) <= pivTol {
					continue
				}
				delta := need / aij
				// Direction legality: an at-lower column may only increase,
				// an at-upper column only decrease.
				if s.atUpper[j] {
					if delta > -eps {
						continue
					}
				} else if delta < eps {
					continue
				}
				var ratio float64
				if !zeroCosts {
					d := s.d[j]
					if s.usePert {
						d += s.pert[j]
					}
					ratio = math.Abs(d) / math.Abs(aij)
				}
				// Within the eps tie band prefer the larger |pivot| — with
				// zero costs every ratio ties, so this is the whole selection
				// rule, and it is what keeps the phase-1 feasibility search
				// from crawling through degenerate tiny-pivot columns. Under
				// Bland, strictly the smallest index.
				better := ratio < bestRatio-eps
				if !better && ratio < bestRatio+eps {
					if enter < 0 {
						better = true
					} else if bland {
						better = j < enter
					} else {
						ae := math.Abs(row[enter])
						aj := math.Abs(aij)
						better = aj > ae+eps || (aj > ae-eps && j < enter)
					}
				}
				if better {
					enter, bestRatio = j, ratio
					if bland && zeroCosts {
						// All ratios tie at zero, so the first (lowest-index)
						// eligible column already attains the minimum.
						break
					}
				}
			}
			if enter < 0 {
				// The violated row admits no compensating column: primal
				// infeasible (the row is a certificate).
				return Infeasible
			}
			span := s.hi[enter] - s.lo[enter]
			if zeroCosts || math.IsInf(span, 1) || math.Abs(need/row[enter]) <= span+eps {
				// The column can absorb the remaining violation — or the
				// solve is the zero-cost feasibility search, where flips are
				// unsafe: with no dual objective to make monotone progress,
				// flip/unflip oscillations can cycle outside the reach of
				// Bland's guarantee (which covers basis exchanges only).
				break
			}
			// Bound flip: move the column across its whole range and re-scan.
			flip := span
			if need/row[enter] < 0 {
				flip = -span
			}
			fcol := s.k.column(enter)
			for i := 0; i < s.m; i++ {
				if aij := fcol[i]; aij != 0 {
					s.xB[i] -= aij * flip
				}
			}
			s.atUpper[enter] = !s.atUpper[enter]
			need -= row[enter] * flip
			st.pivots++
			if bland {
				st.blandPivots++
			}
			if !st.step() {
				return IterLimit
			}
		}
		st.pivots++
		if bland {
			st.blandPivots++
		}
		delta := need / row[enter]
		enterVal := s.boundVal(enter) + delta
		col := s.k.column(enter)
		for i := 0; i < s.m; i++ {
			if i == leave {
				continue
			}
			if aij := col[i]; aij != 0 {
				s.xB[i] -= aij * delta
			}
		}
		out := s.basis[leave]
		s.inBasis[out] = false
		s.atUpper[out] = target == s.hi[out] && !math.IsInf(s.hi[out], 1)
		s.inBasis[enter] = true
		s.basis[leave] = int32(enter)
		s.xB[leave] = enterVal
		if !s.k.pivot(leave, enter) {
			return IterLimit
		}
	}
}

// extract builds the Solution for the current optimal state.
func (s *Solver) extract() *Solution {
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		if !s.inBasis[j] {
			x[j] = s.boundVal(j)
		}
	}
	for i := 0; i < s.m; i++ {
		if b := int(s.basis[i]); b < s.nStruct {
			x[b] = s.xB[i]
		}
	}
	var obj float64
	for j := 0; j < s.nStruct; j++ {
		obj += s.obj[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}
}

// dualFeasible reports whether every nonbasic column's reduced cost has the
// sign its resting bound requires (at-lower: d >= 0, at-upper: d <= 0).
func (s *Solver) dualFeasible() bool {
	for j := 0; j < s.nCols; j++ {
		if s.inBasis[j] || s.lo[j] == s.hi[j] {
			continue
		}
		if s.atUpper[j] {
			if s.d[j] > dualTol {
				return false
			}
		} else if s.d[j] < -dualTol {
			return false
		}
	}
	return true
}

// primalFeasible reports whether every basic value respects its bounds.
func (s *Solver) primalFeasible() bool {
	for i := 0; i < s.m; i++ {
		bi := s.basis[i]
		if s.xB[i] < s.lo[bi]-feasTol || s.xB[i] > s.hi[bi]+feasTol {
			return false
		}
	}
	return true
}

// SolveBounded solves min c.x subject to the Solver's constraints and
// lo <= x <= hi, from scratch. nil bound slices mean the default [0, inf)
// for every variable. The returned error is non-nil only for malformed
// bounds; infeasibility and unboundedness are reported via Status.
func (s *Solver) SolveBounded(lo, hi []float64, deadline time.Time) (*Solution, error) {
	s.solveStart = time.Now()
	feasible, err := s.setBounds(lo, hi)
	if err != nil {
		return nil, err
	}
	s.k.beginSolve()
	if !feasible {
		return s.finish(&Solution{Status: Infeasible}), nil
	}
	s.loadSlackBasis()
	st := s.newIterState(deadline)

	// Phase 1 restores primal feasibility without artificial variables. When
	// the all-slack basis is already dual feasible — true whenever no cost
	// pulls a variable away from its resting bound, which holds for every
	// minimise-nonnegative-costs model this repo builds — the true-cost dual
	// simplex goes straight at the optimum, with the bound-flipping ratio
	// test keeping boxed columns inside their ranges. Otherwise fall back to
	// the zero-cost feasibility search (no flips: without a dual objective
	// they can oscillate).
	if !s.primalFeasible() {
		zeroCosts := !s.dualFeasible()
		if !zeroCosts {
			s.initPert()
		}
		status := s.dualSimplex(&st, zeroCosts)
		s.usePert = false
		switch status {
		case Infeasible:
			return s.finish(&Solution{Status: Infeasible, Phase1Pivots: st.pivots, BlandPivots: st.blandPivots}), nil
		case IterLimit:
			return s.finish(&Solution{Status: IterLimit, Phase1Pivots: st.pivots, BlandPivots: st.blandPivots}), nil
		}
	}
	p1 := st.pivots
	st.pivots = 0

	// Phase 2: bounded primal simplex on the true objective.
	status := s.primalSimplex(&st)
	sol := &Solution{Status: status, Phase1Pivots: p1, Phase2Pivots: st.pivots, BlandPivots: st.blandPivots}
	if status == Optimal {
		opt := s.extract()
		sol.X, sol.Objective = opt.X, opt.Objective
	}
	return s.finish(sol), nil
}

// SolveDual re-solves the problem under new bounds, warm-starting from a
// basis snapshot (typically the optimal basis of a parent branch-and-bound
// node). ok is false when the snapshot cannot be used — wrong shape, a
// numerically singular refactorisation, or a dual walk that stopped short
// without running out of time (the pivot cap, or a basis exchange the
// kernel could not represent) — in which case the caller should fall back
// to SolveBounded; the Solver state is then unspecified but valid
// for a subsequent solve. On ok, the Solution reports the solve through the
// warm-start fields: DualPivots (plus any primal clean-up pivots in
// Phase2Pivots) and WarmStarted.
func (s *Solver) SolveDual(bas *Basis, lo, hi []float64, deadline time.Time) (sol *Solution, ok bool, err error) {
	if bas == nil {
		return nil, false, nil
	}
	s.solveStart = time.Now()
	feasible, err := s.setBounds(lo, hi)
	if err != nil {
		return nil, false, err
	}
	s.k.beginSolve()
	if !feasible {
		return s.finish(&Solution{Status: Infeasible, WarmStarted: true}), true, nil
	}
	if !s.refactorise(bas) {
		return nil, false, nil
	}
	st := s.newIterState(deadline)
	// A warm re-solve after one or two bound changes should take a handful
	// of pivots. Cap the dual walk well below the general iteration limit:
	// on dual-degenerate models the walk can stall in zero-progress pivots,
	// and a cold solve is far cheaper than riding the Bland
	// anti-cycling guard to completion. The cap is a pivot count, so the
	// fallback decision is deterministic.
	if pivotCap := 4*s.m + 100; st.maxIter > pivotCap {
		st.maxIter = pivotCap
	}

	s.initPert()
	status := s.dualSimplex(&st, false)
	s.usePert = false
	if status == IterLimit && !st.deadlineHit {
		return nil, false, nil // stalled, not out of time: fall back cold
	}
	dualPivots := st.pivots
	st.pivots = 0
	st.maxIter = 200 * (s.m + s.nCols + 10) // lift the dual cap for clean-up
	if status == Optimal {
		// The dual run maintained dual feasibility only within tolerance;
		// a primal clean-up pass certifies optimality (usually 0 pivots).
		status = s.primalSimplex(&st)
	}
	sol = &Solution{
		Status:       status,
		DualPivots:   dualPivots,
		Phase2Pivots: st.pivots,
		BlandPivots:  st.blandPivots,
		WarmStarted:  true,
	}
	if status == Optimal {
		opt := s.extract()
		sol.X, sol.Objective = opt.X, opt.Objective
	}
	return s.finish(sol), true, nil
}

// finish stamps kernel statistics onto the solution and records the solve
// into the process registry (duration and total pivot count).
func (s *Solver) finish(sol *Solution) *Solution {
	s.k.solveStats(sol)
	solveH.RecordSince(s.solveStart)
	pivotsH.Record(int64(sol.Phase1Pivots + sol.Phase2Pivots + sol.DualPivots))
	return sol
}

// NumVars returns the structural variable count the Solver was built for.
func (s *Solver) NumVars() int { return s.nStruct }
