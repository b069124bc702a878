package milp

// Branch and cut: Gomory mixed-integer cut rounds at the root relaxation,
// inherited down the tree and purged once they stay loose.
//
// Determinism. Every piece of mutable cutting state — the per-cut
// age/tightness bookkeeping, the separation itself — lives on the main
// branch-and-bound goroutine and is touched only inside cutter.run and
// cutter.inherit, which the main loop calls at canonical node consumption.
// A node's active cut list is fixed at the moment the node is created and
// never mutated afterwards, so the work-stealing workers see cuts only as
// immutable extra LP rows: a speculative solve stays the pure function of
// (prepped problem, node) that PR 2's bit-identity argument rests on. The
// cutter re-establishes a consumed node's tableau on its own arena by
// SolveDual from the consumed basis — a canonical refactorisation that
// depends on the basis *set*, not on which worker produced it — so the
// separated cuts are identical whatever the parallelism.
//
// Validity. Separation runs at the root only, where every bound a Gomory
// derivation shifts a column to is a root bound, so every cut is valid in
// the whole tree.
//
// Warm starts. Children inherit exactly the cut rows of the LP that
// produced their warm-start basis. When inheritance purges an aged slack-
// basic cut, the basis is surgically shrunk with it (drop the cut row and
// its basic slack column; the slack column has a single nonzero in its own
// row, so the minor stays nonsingular), keeping the dual warm start intact
// across purges.

import (
	"math"
	"sort"
	"time"

	"sring/internal/lp"
	"sring/internal/obs"
)

const (
	// defaultCutRounds backs the zero value of Options.CutRounds.
	defaultCutRounds = 30
	// maxCutsPerRound caps how many cuts a round appends (highest efficacy
	// — norm-scaled violation — first).
	maxCutsPerRound = 8
	// gmiRowBudget bounds how many tableau rows are extracted per round;
	// the most fractional basic integers go first.
	gmiRowBudget = 4 * maxCutsPerRound
	// gmiMinFrac rejects tableau rows whose basic value is too close to
	// integral — the cut would be shallow and ill-conditioned.
	gmiMinFrac = 0.01
	// cutViolTol is the minimum absolute violation (relative to 1+|rhs|)
	// for a candidate to be considered at all; cutEffTol the minimum
	// norm-scaled violation (efficacy).
	cutViolTol = 1e-6
	cutEffTol  = 1e-4
	// cutCoeffDropTol: coefficients at or below it are dropped with a
	// right-hand-side compensation over the variable's range (kept when the
	// range is unbounded — dropping would be invalid).
	cutCoeffDropTol = 1e-11
	// gmiZeroTol: tableau-row entries at or below it are BTRAN roundoff of
	// an exact zero and are skipped outright in the GMI derivation.
	gmiZeroTol = 1e-11
	// cutMaxDynamism rejects cuts whose coefficient magnitude ratio would
	// destabilise the basis factorisation.
	cutMaxDynamism = 1e7
	// cutDropAge: a cut slack-basic (loose) for this many consecutive
	// canonical consumptions is dropped from children.
	cutDropAge = 20
)

// CutAuditRecord describes one applied cut for the CutAudit test hook. All
// slices and maps are private copies. Variable indices are in the space the
// branch and bound runs in (the original space when presolve is disabled,
// since row prepping never renumbers variables).
type CutAuditRecord struct {
	Coeffs map[int]float64
	Rel    lp.Rel
	RHS    float64
	// FracX is the fractional relaxation point the cut was separated from
	// (violated by construction).
	FracX []float64
}

// CutAudit, when non-nil, receives every cut the moment it is applied to a
// node LP. It is a test hook (the cut-validity property tests install it);
// it runs on the solver's main goroutine and must not retain the solver.
var CutAudit func(CutAuditRecord)

// cut is one separated cutting plane Σ coeffs[v]·x_v ≥ rhs over structural
// variables. Immutable after construction except for lastTight, which only
// the main goroutine touches.
type cut struct {
	coeffs map[int]float64
	vars   []int // sorted keys of coeffs: deterministic iteration order
	rhs    float64
	norm   float64 // ||coeffs||_2, for efficacy scaling
	sig    uint64  // content signature, for dedup and fingerprints
	// lastTight is the canonical consumption index at which the cut's row
	// was last observed tight (slack nonbasic), or at which it was admitted.
	lastTight int
}

func (c *cut) row() lp.Constraint {
	return lp.Constraint{Coeffs: c.coeffs, Rel: lp.GE, RHS: c.rhs}
}

// violation is positive when x violates the cut. Summation follows the
// sorted variable order so the float result is deterministic.
func (c *cut) violation(x []float64) float64 {
	var act float64
	for _, v := range c.vars {
		act += c.coeffs[v] * x[v]
	}
	return c.rhs - act
}

// cutListEq reports whether two cut lists are element-wise identical; node
// cut lists are immutable, so pointer equality is exact.
func cutListEq(a, b []*cut) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// foldCuts hashes a cut list for the explored-node fingerprint. Empty lists
// fold to 0, so cut-free solves keep a stable shape.
func foldCuts(cuts []*cut) uint64 {
	if len(cuts) == 0 {
		return 0
	}
	h := fnv64Offset
	for _, c := range cuts {
		h ^= c.sig
		h *= fnv64Prime
	}
	return h
}

// roundSig rounds to ~9 significant digits: cut signatures tolerate the
// last-bit noise of equivalent derivations without colliding in practice.
func roundSig(x float64) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	exp := math.Ceil(math.Log10(math.Abs(x)))
	scale := math.Pow(10, 9-exp)
	return math.Round(x*scale) / scale
}

func cutSignature(rel lp.Rel, rhs float64, vars []int, coeffs map[int]float64) uint64 {
	h := fnv64Offset
	h ^= uint64(rel)
	h *= fnv64Prime
	h ^= math.Float64bits(roundSig(rhs))
	h *= fnv64Prime
	for _, v := range vars {
		h ^= uint64(v)
		h *= fnv64Prime
		h ^= math.Float64bits(roundSig(coeffs[v]))
		h *= fnv64Prime
	}
	return h
}

// candidate is a separated-but-not-yet-selected cut with its efficacy at
// the separating point.
type candidate struct {
	c   *cut
	eff float64
}

// cutter owns all cutting-plane state of one solveBB run. Main goroutine
// only.
type cutter struct {
	pp *prepped
	rs *relaxSolver // dedicated arena: tableau re-establishment + cut rounds
	// rounds is the resolved Options.CutRounds.
	rounds int
	sp     *obs.Span

	// consume counts canonical node consumptions (cutter.run calls): the
	// clock for age-based purging.
	consume int

	separatedN, appliedN, purgedN, roundsN int64
}

func newCutter(pp *prepped, rs *relaxSolver, opt Options, sp *obs.Span) *cutter {
	rounds := opt.CutRounds
	if rounds == 0 {
		rounds = defaultCutRounds
	}
	return &cutter{
		pp:     pp,
		rs:     rs,
		rounds: rounds,
		sp:     sp,
	}
}

// cutsEnabled reports whether the options ask for cut separation at all.
func cutsEnabled(opt Options) bool { return opt.CutRounds >= 0 }

// flush publishes the run's counters.
func (ct *cutter) flush() {
	ct.sp.Count("milp.cuts.separated", ct.separatedN)
	ct.sp.Count("milp.cuts.applied", ct.appliedN)
	ct.sp.Count("milp.cuts.purged", ct.purgedN)
	ct.sp.Count("milp.cuts.rounds", ct.roundsN)
}

// run performs the cutting-plane rounds for a consumed node whose
// relaxation came back fractional. Every call ticks the consumption clock
// that ages cuts in inherit; only the root separates. On success it extends
// nd.cuts with the applied cuts and returns the re-solved relaxation
// (tighter bound, new warm-start basis). A nil solution means no cuts were
// applied and the caller's solution stands. pruned=true means the
// cut-augmented LP is infeasible: valid cuts only remove fractional points,
// so the tree holds no integral solution and the node can be discarded.
func (ct *cutter) run(nd *node, bas *lp.Basis, deadline time.Time) (*lp.Solution, *lp.Basis, bool) {
	ct.consume++
	if nd.depth > 0 {
		return nil, nil, false
	}
	// Re-establish the root's tableau on the cutter's arena: a canonical
	// refactorisation of the consumed basis, identical whichever worker
	// arena produced bas.
	probe := &node{lower: nd.lower, upper: nd.upper, basis: bas, cuts: nd.cuts}
	curSol, curBas, err := ct.rs.solve(probe, deadline)
	if err != nil || curSol.Status != lp.Optimal || curBas == nil {
		return nil, nil, false
	}
	lp.AccumulateStats(ct.sp, curSol)
	cur := nd.cuts
	for r := 0; r < ct.rounds; r++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		sel := ct.separate(curSol, cur)
		if len(sel) == 0 {
			break
		}
		ct.roundsN++
		next := make([]*cut, 0, len(cur)+len(sel))
		next = append(next, cur...)
		next = append(next, sel...)
		if err := ct.rs.configure(next); err != nil {
			break
		}
		ext := ct.rs.s.ExtendBasis(curBas)
		if ext == nil {
			break
		}
		nsol, ok, nerr := ct.rs.s.SolveDual(ext, ct.rs.lo, ct.rs.hi, deadline)
		if nerr != nil || !ok {
			break // keep the last consistent (cur, curSol, curBas) state
		}
		if nsol.Status == lp.Infeasible {
			ct.appliedN += int64(len(sel))
			return nil, nil, true
		}
		if nsol.Status != lp.Optimal {
			break
		}
		lp.AccumulateStats(ct.sp, nsol)
		ct.appliedN += int64(len(sel))
		cur, curSol, curBas = next, nsol, ct.rs.s.Basis()
	}
	if cutListEq(cur, nd.cuts) {
		return nil, nil, false
	}
	nd.cuts = cur
	return curSol, curBas, false
}

// inherit computes the cut list, warm-start basis and cut signature the
// children of nd inherit: the node's final cut rows, minus cuts that have
// been slack-basic (loose) for cutDropAge consumptions — those are purged
// with a matching basis surgery so the dual warm start survives.
func (ct *cutter) inherit(nd *node, bas *lp.Basis) ([]*cut, *lp.Basis, uint64) {
	cur := nd.cuts
	if len(cur) == 0 || bas == nil {
		return cur, bas, foldCuts(cur)
	}
	base := len(ct.pp.p.LP.Constraints)
	nVars := ct.pp.p.LP.NumVars
	slackBasic := make([]bool, len(cur))
	for _, col := range bas.Basic {
		if i := int(col) - nVars - base; i >= 0 && i < len(cur) {
			slackBasic[i] = true
		}
	}
	drop := 0
	for i, c := range cur {
		if !slackBasic[i] {
			c.lastTight = ct.consume
		} else if ct.consume-c.lastTight > cutDropAge {
			drop++
		}
	}
	if drop == 0 {
		return cur, bas, foldCuts(cur)
	}
	kept := make([]*cut, 0, len(cur)-drop)
	dropped := make([]bool, len(cur))
	for i, c := range cur {
		if slackBasic[i] && ct.consume-c.lastTight > cutDropAge {
			dropped[i] = true
			ct.purgedN++
			continue
		}
		kept = append(kept, c)
	}
	return kept, shrinkBasis(bas, nVars, base, dropped), foldCuts(kept)
}

// shrinkBasis removes the dropped cut rows and their (basic) slack columns
// from a basis snapshot. Slack columns of retained rows shift down by the
// number of dropped rows before them; structural and base-row slack columns
// are untouched. The dropped columns each carry a single nonzero in their
// own row, so cofactor expansion keeps the shrunk basis nonsingular.
func shrinkBasis(bas *lp.Basis, nVars, base int, dropped []bool) *lp.Basis {
	shift := make([]int, len(dropped)) // cut index -> columns removed before it
	run := 0
	for i, d := range dropped {
		shift[i] = run
		if d {
			run++
		}
	}
	remap := func(col int32) (int32, bool) {
		i := int(col) - nVars - base
		if i < 0 || i >= len(dropped) {
			return col, true // structural or base-row slack: unchanged
		}
		if dropped[i] {
			return 0, false
		}
		return col - int32(shift[i]), true
	}
	out := &lp.Basis{
		Basic:   make([]int32, 0, len(bas.Basic)-run),
		AtUpper: make([]bool, 0, len(bas.AtUpper)-run),
	}
	for _, col := range bas.Basic {
		if nc, keep := remap(col); keep {
			out.Basic = append(out.Basic, nc)
		}
	}
	for col, up := range bas.AtUpper {
		if _, keep := remap(int32(col)); keep {
			out.AtUpper = append(out.AtUpper, up)
		}
	}
	return out
}

// separate generates Gomory candidate cuts at the current fractional point
// and returns the efficacy-selected batch (at most maxCutsPerRound), minus
// cuts the LP already carries.
func (ct *cutter) separate(sol *lp.Solution, cur []*cut) []*cut {
	inLP := make(map[uint64]bool, len(cur))
	for _, c := range cur {
		inLP[c.sig] = true
	}
	var cands []candidate
	seen := make(map[uint64]bool)
	ct.separateGomory(sol, func(c *cut, eff float64) {
		if inLP[c.sig] || seen[c.sig] {
			return
		}
		seen[c.sig] = true
		cands = append(cands, candidate{c: c, eff: eff})
		ct.separatedN++
	})
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].eff != cands[j].eff {
			return cands[i].eff > cands[j].eff
		}
		return cands[i].c.sig < cands[j].c.sig
	})
	if len(cands) > maxCutsPerRound {
		cands = cands[:maxCutsPerRound]
	}
	sel := make([]*cut, len(cands))
	for i, cd := range cands {
		cd.c.lastTight = ct.consume
		sel[i] = cd.c
		if CutAudit != nil {
			audit(cd.c, sol)
		}
	}
	return sel
}

// audit emits a CutAuditRecord for the test hook; copies everything.
func audit(c *cut, sol *lp.Solution) {
	coeffs := make(map[int]float64, len(c.coeffs))
	for v, a := range c.coeffs {
		coeffs[v] = a
	}
	CutAudit(CutAuditRecord{
		Coeffs: coeffs,
		Rel:    lp.GE,
		RHS:    c.rhs,
		FracX:  append([]float64(nil), sol.X...),
	})
}

// --- Gomory mixed-integer cuts ---------------------------------------------

func (ct *cutter) separateGomory(sol *lp.Solution, add func(*cut, float64)) {
	s := ct.rs.s
	n := ct.pp.p.LP.NumVars
	m := s.NumRows()
	type rowCand struct {
		r    int
		dist float64
	}
	var rows []rowCand
	for r := 0; r < m; r++ {
		bv := s.BasicVar(r)
		if bv >= n || !ct.pp.p.Integer[bv] {
			continue
		}
		f0 := frac(s.BasicValue(r))
		if f0 < gmiMinFrac || f0 > 1-gmiMinFrac {
			continue
		}
		rows = append(rows, rowCand{r, math.Min(f0, 1-f0)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].dist != rows[j].dist {
			return rows[i].dist > rows[j].dist
		}
		return rows[i].r < rows[j].r
	})
	if len(rows) > gmiRowBudget {
		rows = rows[:gmiRowBudget]
	}
	for _, rc := range rows {
		if c, eff := ct.gmiFromRow(rc.r, sol); c != nil {
			add(c, eff)
		}
	}
}

func frac(x float64) float64 { return x - math.Floor(x) }

func nearInt(x float64) bool { return math.Abs(x-math.Round(x)) <= 1e-9 }

// gmiFromRow derives the Gomory mixed-integer cut of tableau row r.
//
// With every nonbasic column shifted to its resting bound (t_j = x_j - l_j
// at lower, u_j - x_j at upper; slack columns included), the row reads
// x_B = b̄ - Σ a_j t_j with x_B integral and f0 = frac(b̄) ∈ (0,1). The GMI
// inequality Σ γ_j t_j ≥ f0 uses γ_j = min(f_j, f0(1-f_j)/(1-f0)) for
// integer-shift columns (f_j = frac(a_j)) and γ_j = a_j (a_j ≥ 0) or
// f0·(-a_j)/(1-f0) (a_j < 0) for continuous ones. Substituting the shifts
// and the slack definitions s_i = rhs_i - A_i·x back yields a structural-
// space inequality Σ c_v x_v ≥ rhs.
func (ct *cutter) gmiFromRow(r int, sol *lp.Solution) (*cut, float64) {
	s := ct.rs.s
	n := ct.pp.p.LP.NumVars
	row := s.TableauRow(r)
	b := s.BasicValue(r)
	f0 := frac(b)
	terms := make(map[int]float64)
	rhs := f0
	for j := range row {
		if s.IsBasic(j) {
			continue // basic columns: coefficient 0 (or 1 in its own row)
		}
		lo, hi := s.ColBounds(j)
		if hi-lo < 1e-12 {
			continue // fixed column: t ≡ 0
		}
		// BTRAN roundoff leaves ~1e-13 ghosts on columns whose exact tableau
		// coefficient is zero; treating them as entries would abort every cut
		// that touches an unbounded column. They are noise, not data.
		if math.Abs(row[j]) <= gmiZeroTol {
			continue
		}
		atUp := s.NonbasicAtUpper(j)
		bound := lo
		if atUp {
			bound = hi
		}
		if math.IsInf(bound, 0) {
			return nil, 0 // resting at an infinite bound: cannot shift
		}
		a := row[j]
		if atUp {
			a = -a
		}
		var g float64
		if j < n && ct.pp.p.Integer[j] && nearInt(bound) {
			fj := frac(a)
			if fj <= f0 {
				g = fj
			} else {
				g = f0 * (1 - fj) / (1 - f0)
			}
		} else if a >= 0 {
			g = a
		} else {
			g = f0 * (-a) / (1 - f0)
		}
		if g <= cutCoeffDropTol {
			if g > 0 {
				// Dropping γ·t weakens the ≥-cut by at most γ·range; only
				// valid (and worth it) over a finite range.
				rng := hi - lo
				if math.IsInf(rng, 0) || g*rng > 1e-7 {
					return nil, 0
				}
				rhs -= g * rng
			}
			continue
		}
		if j < n {
			// Structural shift: t = x - lo or hi - x.
			if atUp {
				terms[j] -= g
				rhs -= g * bound
			} else {
				terms[j] += g
				rhs += g * bound
			}
			continue
		}
		// Slack shift: s_i = rhs_i - A_i·x, so t expands through row i's
		// structural coefficients (cut rows are structural too, so this
		// never recurses).
		cons := s.Row(j - n)
		if atUp {
			for v, av := range cons.Coeffs {
				terms[v] += g * av
			}
			rhs += g * (cons.RHS - bound)
		} else {
			for v, av := range cons.Coeffs {
				terms[v] -= g * av
			}
			rhs -= g * (cons.RHS - bound)
		}
	}
	return ct.finishCut(terms, rhs, sol)
}

// finishCut cleans, normalises, filters and packages a derived ≥-inequality;
// returns nil when it fails the numeric or violation gates.
func (ct *cutter) finishCut(terms map[int]float64, rhs float64, sol *lp.Solution) (*cut, float64) {
	vars := make([]int, 0, len(terms))
	for v := range terms {
		vars = append(vars, v)
	}
	if len(vars) == 0 {
		return nil, 0
	}
	sort.Ints(vars)
	// Drop negligible coefficients — absolute noise and anything 9 orders
	// below the largest entry (which would otherwise trip the dynamism
	// gate) — with a right-hand-side compensation over the variable's root
	// range.
	dropTol := cutCoeffDropTol
	for _, v := range vars {
		if a := math.Abs(terms[v]); a*1e-9 > dropTol {
			dropTol = a * 1e-9
		}
	}
	kept := vars[:0]
	for _, v := range vars {
		c := terms[v]
		if math.Abs(c) > dropTol {
			kept = append(kept, v)
			continue
		}
		if c == 0 {
			delete(terms, v)
			continue
		}
		lo, hi := ct.pp.lo[v], ct.pp.hi[v]
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			kept = append(kept, v) // unbounded range: must keep the term
			continue
		}
		// Dropping c·x from a ≥-row costs at most max(c·lo, c·hi).
		rhs -= math.Max(c*lo, c*hi)
		delete(terms, v)
	}
	vars = kept
	if len(vars) == 0 {
		return nil, 0
	}
	minAbs, maxAbs := math.Inf(1), 0.0
	for _, v := range vars {
		a := math.Abs(terms[v])
		if a < minAbs {
			minAbs = a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs/minAbs > cutMaxDynamism || math.Abs(rhs) > cutMaxDynamism*maxAbs {
		return nil, 0
	}
	// Normalise to max |coefficient| = 1: keeps appended rows well scaled
	// and makes signatures of rescaled derivations collide as intended.
	if maxAbs != 1 {
		inv := 1 / maxAbs
		for _, v := range vars {
			terms[v] *= inv
		}
		rhs *= inv
	}
	c := &cut{
		coeffs: terms,
		vars:   vars,
		rhs:    rhs,
	}
	var norm2 float64
	for _, v := range vars {
		norm2 += terms[v] * terms[v]
	}
	c.norm = math.Sqrt(norm2)
	viol := c.violation(sol.X)
	if viol < cutViolTol*(1+math.Abs(rhs)) {
		return nil, 0
	}
	eff := viol / c.norm
	if eff < cutEffTol {
		return nil, 0
	}
	c.sig = cutSignature(lp.GE, rhs, vars, terms)
	return c, eff
}
