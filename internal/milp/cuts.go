package milp

// Branch and cut: Gomory mixed-integer and lifted cover cut separation at
// branch-and-bound nodes, with a deterministic cut pool.
//
// Determinism. Every piece of mutable cutting state — the pool, the per-cut
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
// Locality. A Gomory cut's derivation shifts every nonbasic column to the
// bound it rests at. When all of those bounds are root bounds the cut is
// valid everywhere (global) and enters the pool for adoption by other
// subtrees; when any is a branching tightening the cut is valid only below
// this node (local) and travels solely by inheritance to the node's own
// descendants. Cover cuts are derived from root binarity and original rows,
// hence always global.
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
	// cutMaxDepth bounds how deep in the tree separation still runs: the
	// root gets the full round budget, nodes at depth <= cutMaxDepth one
	// round, deeper nodes none (their bounds move mostly by inheritance).
	cutMaxDepth = 0
	// adoptMaxDepth bounds pool adoption at non-separating nodes: below it
	// a purged-then-revived cut would thrash (re-adopted, re-purged) faster
	// than it helps the bound.
	adoptMaxDepth = 0
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
	// cutDropAge / poolPurgeAge: a cut slack-basic (loose) for this many
	// consecutive canonical consumptions is dropped from children / from
	// the global pool.
	cutDropAge   = 20
	poolPurgeAge = 50
)

// CutAuditRecord describes one applied cut for the CutAudit test hook. All
// slices and maps are private copies. Variable indices are in the space the
// branch and bound runs in (the original space when presolve is disabled,
// since row prepping never renumbers variables).
type CutAuditRecord struct {
	Kind   string // "gmi", "cover" or "pool" (a re-adopted global cut)
	Coeffs map[int]float64
	Rel    lp.Rel
	RHS    float64
	Global bool
	// FracX is the fractional relaxation point the cut was separated from
	// (violated by construction); Lower/Upper the node's variable bounds at
	// that moment — the validity domain of a non-global cut.
	FracX        []float64
	Lower, Upper []float64
}

// CutAudit, when non-nil, receives every cut the moment it is applied to a
// node LP. It is a test hook (the cut-validity property tests install it);
// it runs on the solver's main goroutine and must not retain the solver.
var CutAudit func(CutAuditRecord)

// cut is one separated cutting plane over structural variables. Immutable
// after construction except for the pool bookkeeping fields, which only the
// main goroutine touches.
type cut struct {
	id     int
	kind   string // "gmi" | "cover"
	coeffs map[int]float64
	vars   []int // sorted keys of coeffs: deterministic iteration order
	rel    lp.Rel
	rhs    float64
	norm   float64 // ||coeffs||_2, for efficacy scaling
	sig    uint64  // content signature, for dedup and fingerprints
	global bool
	// pooled marks membership in the cutter's active global list.
	pooled bool
	// born / lastTight are canonical consumption indices: when the cut was
	// admitted and when its row was last observed tight (slack nonbasic).
	born, lastTight int
}

func (c *cut) row() lp.Constraint {
	return lp.Constraint{Coeffs: c.coeffs, Rel: c.rel, RHS: c.rhs}
}

// violation is positive when x violates the cut. Summation follows the
// sorted variable order so the float result is deterministic.
func (c *cut) violation(x []float64) float64 {
	var act float64
	for _, v := range c.vars {
		act += c.coeffs[v] * x[v]
	}
	if c.rel == lp.GE {
		return c.rhs - act
	}
	return act - c.rhs
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
	c     *cut
	eff   float64
	fresh bool // newly separated (vs re-adopted from the pool)
}

// cutter owns all cutting-plane state of one solveBB run. Main goroutine
// only.
type cutter struct {
	pp *prepped
	rs *relaxSolver // dedicated arena: tableau re-establishment + cut rounds
	// rounds is the resolved Options.CutRounds.
	rounds int
	sp     *obs.Span

	bySig  map[uint64]*cut // every cut ever admitted, by signature
	global []*cut          // active global pool, admission order
	nextID int
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
		bySig:  make(map[uint64]*cut),
	}
}

// cutsEnabled reports whether the options ask for cut separation at all.
func cutsEnabled(opt Options) bool { return opt.CutRounds >= 0 }

func (ct *cutter) roundsFor(depth int) int {
	switch {
	case depth == 0:
		return ct.rounds
	case depth <= cutMaxDepth:
		return 1
	default:
		return 0
	}
}

// flush publishes the run's counters.
func (ct *cutter) flush() {
	ct.sp.Count("milp.cuts.separated", ct.separatedN)
	ct.sp.Count("milp.cuts.applied", ct.appliedN)
	ct.sp.Count("milp.cuts.purged", ct.purgedN)
	ct.sp.Count("milp.cuts.rounds", ct.roundsN)
}

// prunePool retires global cuts that have been loose for poolPurgeAge
// consumptions. They stay in bySig (a re-separated duplicate is re-adopted
// rather than duplicated) but stop being offered to new nodes.
func (ct *cutter) prunePool() {
	kept := ct.global[:0]
	for _, c := range ct.global {
		if ct.consume-c.lastTight > poolPurgeAge {
			c.pooled = false
			ct.purgedN++
			continue
		}
		kept = append(kept, c)
	}
	ct.global = kept
}

// run performs the cutting-plane rounds for a consumed node whose
// relaxation came back fractional. On success it extends nd.cuts with the
// applied cuts and returns the re-solved relaxation (tighter bound, new
// warm-start basis). A nil solution means no cuts were applied and the
// caller's solution stands. pruned=true means the cut-augmented LP is
// infeasible: valid cuts only remove fractional points, so the subtree
// holds no integral solution and the node can be discarded.
func (ct *cutter) run(nd *node, sol *lp.Solution, bas *lp.Basis, deadline time.Time) (*lp.Solution, *lp.Basis, bool) {
	ct.consume++
	ct.prunePool()
	rounds := ct.roundsFor(nd.depth)
	adoptOnly := rounds == 0
	if adoptOnly {
		// Below the separation depth, nodes still adopt violated global
		// pool cuts: a pool scan against the node's relaxation point (a
		// deterministic function of the node, whichever worker solved it)
		// costs no tableau work.
		if nd.depth > adoptMaxDepth || len(ct.global) == 0 || !ct.anyAdoptable(sol, nd.cuts) {
			return nil, nil, false
		}
		rounds = 1
	}
	var curSol *lp.Solution
	var curBas *lp.Basis
	if adoptOnly {
		// No tableau needed; the arena only has to carry the node's rows
		// and bounds so the cut rounds can extend them.
		if err := ct.rs.configure(nd.cuts); err != nil {
			return nil, nil, false
		}
		ct.rs.setBounds(nd)
		curSol, curBas = sol, bas
	} else {
		// Re-establish the node's tableau on the cutter's arena: a
		// canonical refactorisation of the consumed basis, identical
		// whichever worker arena produced bas.
		probe := &node{lower: nd.lower, upper: nd.upper, basis: bas, cuts: nd.cuts}
		var err error
		curSol, curBas, err = ct.rs.solve(probe, deadline)
		if err != nil || curSol.Status != lp.Optimal || curBas == nil {
			return nil, nil, false
		}
		lp.AccumulateStats(ct.sp, curSol)
	}
	cur := nd.cuts
	for r := 0; r < rounds; r++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		sel := ct.separate(curSol, cur, adoptOnly)
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

// anyAdoptable reports whether the pool holds a global cut violated at x
// that the node's LP does not already carry.
func (ct *cutter) anyAdoptable(sol *lp.Solution, cur []*cut) bool {
	inLP := make(map[uint64]bool, len(cur))
	for _, c := range cur {
		inLP[c.sig] = true
	}
	for _, c := range ct.global {
		if inLP[c.sig] {
			continue
		}
		if v := c.violation(sol.X); v >= cutViolTol*(1+math.Abs(c.rhs)) && v/c.norm >= cutEffTol {
			return true
		}
	}
	return false
}

// separate generates candidate cuts at the current fractional point and
// returns the efficacy-selected batch (at most maxCutsPerRound): fresh
// Gomory and cover cuts, plus violated global pool cuts the node's LP does
// not carry yet. Fresh selections are admitted to the pool here. With
// adoptOnly the fresh separators are skipped — only the pool scan runs.
func (ct *cutter) separate(sol *lp.Solution, cur []*cut, adoptOnly bool) []*cut {
	inLP := make(map[uint64]bool, len(cur))
	for _, c := range cur {
		inLP[c.sig] = true
	}
	var cands []candidate
	seen := make(map[uint64]bool)
	add := func(c *cut, eff float64, fresh bool) {
		if inLP[c.sig] || seen[c.sig] {
			return
		}
		seen[c.sig] = true
		cands = append(cands, candidate{c: c, eff: eff, fresh: fresh})
		if fresh {
			ct.separatedN++
		}
	}
	if !adoptOnly {
		ct.separateGomory(sol, add)
		ct.separateCovers(sol, add)
	}
	// Pool adoption: global cuts separated elsewhere that this node's
	// point violates.
	for _, c := range ct.global {
		if inLP[c.sig] || seen[c.sig] {
			continue
		}
		if v := c.violation(sol.X); v >= cutViolTol*(1+math.Abs(c.rhs)) && v/c.norm >= cutEffTol {
			add(c, v/c.norm, false)
		}
	}
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
		c := cd.c
		if cd.fresh {
			if prev, ok := ct.bySig[c.sig]; ok {
				c = prev // purged earlier, re-separated now: reuse
			} else {
				c.id = ct.nextID
				ct.nextID++
				c.born = ct.consume
				ct.bySig[c.sig] = c
			}
			c.lastTight = ct.consume
			if c.global && !c.pooled {
				c.pooled = true
				ct.global = append(ct.global, c)
			}
		}
		sel[i] = c
		if CutAudit != nil {
			ct.audit(c, sol)
		}
	}
	return sel
}

// audit emits a CutAuditRecord for the test hook; copies everything.
func (ct *cutter) audit(c *cut, sol *lp.Solution) {
	coeffs := make(map[int]float64, len(c.coeffs))
	for v, a := range c.coeffs {
		coeffs[v] = a
	}
	CutAudit(CutAuditRecord{
		Kind:   c.kind,
		Coeffs: coeffs,
		Rel:    c.rel,
		RHS:    c.rhs,
		Global: c.global,
		FracX:  append([]float64(nil), sol.X...),
		Lower:  append([]float64(nil), ct.rs.lo...),
		Upper:  append([]float64(nil), ct.rs.hi...),
	})
}

// --- Gomory mixed-integer cuts ---------------------------------------------

// gmiRowBudget bounds how many tableau rows are extracted per round; the
// most fractional basic integers go first.
func (ct *cutter) gmiRowBudget() int {
	b := 4 * maxCutsPerRound
	if b < 16 {
		b = 16
	}
	if b > 128 {
		b = 128
	}
	return b
}

func (ct *cutter) separateGomory(sol *lp.Solution, add func(*cut, float64, bool)) {
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
	if b := ct.gmiRowBudget(); len(rows) > b {
		rows = rows[:b]
	}
	for _, rc := range rows {
		if c, eff := ct.gmiFromRow(rc.r, sol); c != nil {
			add(c, eff, true)
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
// space inequality Σ c_v x_v ≥ rhs. The cut is global exactly when every
// bound used in the shifts is the root bound.
func (ct *cutter) gmiFromRow(r int, sol *lp.Solution) (*cut, float64) {
	s := ct.rs.s
	n := ct.pp.p.LP.NumVars
	row := s.TableauRow(r)
	b := s.BasicValue(r)
	f0 := frac(b)
	terms := make(map[int]float64)
	rhs := f0
	global := true
	for j := range row {
		if s.IsBasic(j) {
			continue // basic columns: coefficient 0 (or 1 in its own row)
		}
		lo, hi := s.ColBounds(j)
		if hi-lo < 1e-12 {
			// Fixed column: t ≡ 0. Global only if fixed at the root too.
			if j < n && (lo != ct.pp.lo[j] || hi != ct.pp.hi[j]) {
				global = false
			}
			continue
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
				if bound != ct.pp.hi[j] {
					global = false
				}
			} else {
				terms[j] += g
				rhs += g * bound
				if bound != ct.pp.lo[j] {
					global = false
				}
			}
			continue
		}
		// Slack shift: s_i = rhs_i - A_i·x, so t expands through row i's
		// structural coefficients (cut rows are structural too, so this
		// never recurses). Slack bounds encode the row relation and are
		// root properties: no locality impact.
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
	return ct.finishCut("gmi", terms, lp.GE, rhs, global, sol)
}

// finishCut cleans, normalises, filters and packages a derived inequality;
// returns nil when it fails the numeric or violation gates.
func (ct *cutter) finishCut(kind string, terms map[int]float64, rel lp.Rel, rhs float64, global bool, sol *lp.Solution) (*cut, float64) {
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
	// gate) — with a right-hand-side compensation over the tightest finite
	// range available (root if possible, else the node bounds — which makes
	// the cut local).
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
		local := false
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			lo, hi = ct.rs.lo[v], ct.rs.hi[v]
			local = true
		}
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			kept = append(kept, v) // unbounded range: must keep the term
			continue
		}
		// For a ≥-row dropping c·x costs at most max(c·lo, c·hi); for ≤
		// at least min(c·lo, c·hi).
		if rel == lp.GE {
			rhs -= math.Max(c*lo, c*hi)
		} else {
			rhs -= math.Min(c*lo, c*hi)
		}
		if local {
			global = false
		}
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
		kind:   kind,
		coeffs: terms,
		vars:   vars,
		rel:    rel,
		rhs:    rhs,
		global: global,
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
	c.sig = cutSignature(rel, rhs, vars, terms)
	return c, eff
}

// --- Lifted cover cuts -----------------------------------------------------

// separateCovers runs lifted cover separation on the rows the model tagged
// as knapsacks (Problem.CoverRows, remapped through presolve and row
// prepping). A ≥-row is negated to ≤ first; negative coefficients are
// complemented away through root binarity, yielding Σ a'_j x̃_j ≤ b' with
// a' > 0. A greedy minimal cover C (cheapest (1-x̃*)/a' first) gives
// Σ_{C} x̃ ≤ |C|-1, extended with coefficient 1 over every variable whose
// weight reaches max_{C} a' — the classic extended cover inequality. The
// derivation uses only the original row and root bounds: always global.
func (ct *cutter) separateCovers(sol *lp.Solution, add func(*cut, float64, bool)) {
	for _, ri := range ct.pp.coverRows {
		if c, eff := ct.coverFromRow(ri, sol); c != nil {
			add(c, eff, true)
		}
	}
}

type coverItem struct {
	v    int
	a    float64 // complemented weight a' > 0
	comp bool    // variable entered complemented (x̃ = 1 - x)
	xt   float64 // x̃* at the fractional point
}

func (ct *cutter) coverFromRow(ri int, sol *lp.Solution) (*cut, float64) {
	cons := ct.pp.p.LP.Constraints[ri]
	sign := 1.0
	switch cons.Rel {
	case lp.LE, lp.EQ: // EQ relaxes to its ≤ half
	case lp.GE:
		sign = -1
	}
	b := sign * cons.RHS
	items := make([]coverItem, 0, len(cons.Coeffs))
	for v, a0 := range cons.Coeffs {
		a := sign * a0
		if a == 0 {
			continue
		}
		// Knapsack structure needs root-binary variables.
		if !ct.pp.p.Integer[v] || ct.pp.lo[v] != 0 || ct.pp.hi[v] != 1 {
			return nil, 0
		}
		x := math.Min(1, math.Max(0, sol.X[v]))
		if a > 0 {
			items = append(items, coverItem{v: v, a: a, xt: x})
		} else {
			b -= a // complement: a·x = -(-a)·(1-x) + a
			items = append(items, coverItem{v: v, a: -a, comp: true, xt: 1 - x})
		}
	}
	if len(items) == 0 || b < 0 {
		return nil, 0
	}
	var total float64
	for _, it := range items {
		total += it.a
	}
	if total <= b+1e-9 {
		return nil, 0 // no cover exists
	}
	// Greedy minimal cover: cheapest violation contribution per unit of
	// weight first; deterministic tie-break on the variable index.
	sort.Slice(items, func(i, j int) bool {
		ci := (1 - items[i].xt) / items[i].a
		cj := (1 - items[j].xt) / items[j].a
		if ci != cj {
			return ci < cj
		}
		return items[i].v < items[j].v
	})
	var sum, maxA float64
	cover := 0
	for _, it := range items {
		sum += it.a
		cover++
		if it.a > maxA {
			maxA = it.a
		}
		if sum > b+1e-9 {
			break
		}
	}
	if sum <= b+1e-9 {
		return nil, 0
	}
	// Extended cover: Σ_{C ∪ E} x̃ ≤ |C| - 1 with E = {j ∉ C : a'_j ≥ max_C a'}.
	terms := make(map[int]float64, len(items))
	rhs := float64(cover - 1)
	for i, it := range items {
		if i >= cover && it.a < maxA {
			continue
		}
		if it.comp {
			terms[it.v] -= 1
			rhs -= 1
		} else {
			terms[it.v] += 1
		}
	}
	return ct.finishCut("cover", terms, lp.LE, rhs, true, sol)
}
