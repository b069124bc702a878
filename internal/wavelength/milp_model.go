package wavelength

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sring/internal/lp"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
)

// SolveInfo reports how a SolveMILP call went.
type SolveInfo struct {
	// Exact is true when optimality was proven.
	Exact bool
	// Bound is the proven lower bound on the Eq. 8 objective (for the
	// model's palette); meaningful whenever Nodes > 0.
	Bound float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Gap is the relative optimality gap of the returned assignment:
	// 0 for a proven optimum, +Inf when no bound was established.
	Gap float64
	// TimeLimitHit reports that the solver's wall-clock budget expired
	// before the search finished.
	TimeLimitHit bool
	// Cancelled reports that the solve was interrupted by context
	// cancellation; the returned assignment is the solver's best incumbent
	// at that moment.
	Cancelled bool
	// NodeFingerprint is the solver's explored-node fingerprint
	// (milp.Result.NodeFingerprint): identical across parallelism
	// settings for the same model and limits.
	NodeFingerprint uint64
}

// SolveMILP builds and solves the SRing wavelength-assignment MILP
// (paper Sec. III-B) over a palette of numLambda wavelengths, seeded with
// the incumbent assignment (which must use at most numLambda wavelengths).
// It returns the best assignment found and the solver telemetry. A zero
// timeLimit means milp.DefaultTimeLimit; parallelism is the LP worker
// count (0 = GOMAXPROCS, 1 = sequential), with no effect on the result.
// Cancelling ctx stops the search gracefully: the incumbent at that point
// is returned with SolveInfo.Cancelled set. The solve records under parent
// (model size, branch-and-bound progress, gap trajectory); a nil parent
// records nothing.
//
// Model notes relative to the paper:
//   - Eq. 2 (collision avoidance) is implemented as per-segment clique
//     constraints — for every waveguide segment and wavelength, at most one
//     of the paths crossing that segment may use it — which is equivalent
//     for overlap-defined conflicts and yields a tighter LP relaxation than
//     pairwise rows. (Read literally, Eq. 2's star form would also forbid
//     two mutually non-conflicting paths that each conflict with a third
//     from sharing a wavelength, which is over-strict.)
//   - Eq. 3's min(·, 1) is linearised with indicator binaries y_λ and rows
//     b_{s,λ} ≤ y_λ, plus symmetry-breaking y_λ ≥ y_{λ+1}.
//   - Eq. 5's il_s is substituted directly into Eqs. 6-7: il_s = L_s +
//     L_sp · b_sp^{n(s)}, removing one continuous variable per path.
func SolveMILP(ctx context.Context, infos []PathInfo, numLambda int, w Weights, incumbent *Assignment, timeLimit time.Duration, parallelism int, parent *obs.Span) (*Assignment, SolveInfo, error) {
	return SolveMILPRegistry(ctx, infos, numLambda, w, incumbent, timeLimit, parallelism, 0, nil, parent)
}

// SolveMILPRegistry is SolveMILP with an explicit aggregate-telemetry
// registry for the solver's kernel histograms (nil: obs.Default()) and a
// cut-separation budget (milp.Options.CutRounds: 0 solver default, negative
// disables cutting planes).
func SolveMILPRegistry(ctx context.Context, infos []PathInfo, numLambda int, w Weights, incumbent *Assignment, timeLimit time.Duration, parallelism, cutRounds int, reg *obs.Registry, parent *obs.Span) (*Assignment, SolveInfo, error) {
	if incumbent != nil && incumbent.NumLambda > numLambda {
		return nil, SolveInfo{}, fmt.Errorf("wavelength: incumbent uses %d wavelengths, palette has %d", incumbent.NumLambda, numLambda)
	}
	m, err := BuildMILP(infos, numLambda, w)
	if err != nil {
		return nil, SolveInfo{}, err
	}
	return solveModel(ctx, m, infos, incumbent, w, timeLimit, parallelism, cutRounds, reg, parent)
}

// MILPModel is one instance's built Eq. 8 linearisation: the mixed-integer
// problem plus the variable layout needed to seed and decode it.
// SolveMILPRegistry consumes it; the cut-validity property tests drive
// milp.SolveContext on it directly (with presolve disabled, so audited cut
// coordinates stay in this model's variable space).
type MILPModel struct {
	// Prob is the problem to hand to milp.SolveContext.
	Prob *milp.Problem
	// Priority is the branch-priority vector for milp.Options.BranchPriority.
	Priority []int

	s, l    int
	spNodes []netlist.NodeID
}

// Variable layout (see BuildMILP):
//
//	b_{s,λ}   : s*L + λ                      (binary)   [0, S*L)
//	y_λ       : S*L + λ                      (binary)
//	sp_n      : S*L + L + spIndex[n]         (binary)
//	ilSmax    : S*L + L + |sp|               (continuous)
//	ilmax_λ   : S*L + L + |sp| + 1 + λ       (continuous)
func (m *MILPModel) bVar(s, l int) int  { return s*m.l + l }
func (m *MILPModel) yVar(l int) int     { return m.s*m.l + l }
func (m *MILPModel) spVar(i int) int    { return m.s*m.l + m.l + i }
func (m *MILPModel) ilSmaxVar() int     { return m.s*m.l + m.l + len(m.spNodes) }
func (m *MILPModel) ilMaxVar(l int) int { return m.ilSmaxVar() + 1 + l }

// IncumbentVector lifts a feasible assignment into the model's variable
// space, suitable for milp.Options.Incumbent. The assignment is normalised
// to first-use wavelength order first — the model's symmetry rows assume it.
// It returns nil, which milp.Options.Incumbent reads as a cold start, when
// the model cannot represent the assignment: infos or the assignment do not
// cover the model's S paths, or the assignment uses more wavelengths than
// the model's palette.
func (m *MILPModel) IncumbentVector(infos []PathInfo, a *Assignment, w Weights) []float64 {
	if len(infos) != m.s || len(a.Lambda) != m.s {
		return nil
	}
	norm := a.Clone()
	norm.Normalize()
	if norm.NumLambda > m.l {
		return nil
	}
	e := newEvaluator(infos)
	obj := e.score(norm, w)
	x := make([]float64, m.Prob.LP.NumVars)
	for s, l := range norm.Lambda {
		x[m.bVar(s, l)] = 1
	}
	for l, il := range e.perLambda {
		x[m.yVar(l)] = 1
		x[m.ilMaxVar(l)] = il
	}
	for i, n := range m.spNodes {
		if e.nodeSplit(n) {
			x[m.spVar(i)] = 1
		}
	}
	x[m.ilSmaxVar()] = obj.WorstIL
	return x
}

// Decode reads the wavelength assignment out of a solver point.
func (m *MILPModel) Decode(x []float64) (*Assignment, error) {
	a := &Assignment{Lambda: make([]int, m.s), NumLambda: m.l}
	for s := 0; s < m.s; s++ {
		found := false
		for l := 0; l < m.l; l++ {
			if x[m.bVar(s, l)] > 0.5 {
				a.Lambda[s] = l
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("wavelength: MILP solution assigns no wavelength to path %d", s)
		}
	}
	a.Normalize()
	return a, nil
}

// BuildMILP constructs the wavelength-assignment MILP over a palette of
// numLambda wavelengths without solving it. See SolveMILP for the model
// notes.
func BuildMILP(infos []PathInfo, numLambda int, w Weights) (*MILPModel, error) {
	if numLambda < 1 {
		return nil, fmt.Errorf("wavelength: SolveMILP needs numLambda >= 1, got %d", numLambda)
	}
	S := len(infos)
	L := numLambda

	// Two-sender nodes get a b_sp variable (single-sender nodes never need
	// a node splitter).
	nodeRings := make(map[netlist.NodeID]map[int]bool)
	for _, pi := range infos {
		n := pi.SenderNode()
		if nodeRings[n] == nil {
			nodeRings[n] = make(map[int]bool)
		}
		nodeRings[n][pi.SenderRing()] = true
	}
	var spNodes []netlist.NodeID
	for n, rings := range nodeRings {
		if len(rings) >= 2 {
			spNodes = append(spNodes, n)
		}
	}
	sort.Slice(spNodes, func(i, j int) bool { return spNodes[i] < spNodes[j] })
	spIndex := make(map[netlist.NodeID]int, len(spNodes))
	for i, n := range spNodes {
		spIndex[n] = i
	}

	// Variable layout:
	//   b_{s,λ}   : s*L + λ                      (binary)   [0, S*L)
	//   y_λ       : S*L + λ                      (binary)
	//   sp_n      : S*L + L + spIndex[n]         (binary)
	//   ilSmax    : S*L + L + |sp|               (continuous)
	//   ilmax_λ   : S*L + L + |sp| + 1 + λ       (continuous)
	bVar := func(s, l int) int { return s*L + l }
	yVar := func(l int) int { return S*L + l }
	spVar := func(i int) int { return S*L + L + i }
	ilSmaxVar := S*L + L + len(spNodes)
	ilMaxVar := func(l int) int { return ilSmaxVar + 1 + l }
	numVars := ilSmaxVar + 1 + L

	prob := &milp.Problem{
		LP:      lp.Problem{NumVars: numVars, Objective: make([]float64, numVars)},
		Integer: make([]bool, numVars),
	}
	for s := 0; s < S; s++ {
		for l := 0; l < L; l++ {
			prob.Integer[bVar(s, l)] = true
		}
	}
	for l := 0; l < L; l++ {
		prob.Integer[yVar(l)] = true
		prob.LP.Objective[yVar(l)] = w.Alpha     // α · i_wl
		prob.LP.Objective[ilMaxVar(l)] = w.Gamma // γ · Σ il_λ^max
	}
	for i := range spNodes {
		prob.Integer[spVar(i)] = true
	}
	prob.LP.Objective[ilSmaxVar] = w.Beta // β · il^Smax

	// Eq. 1: each path gets exactly one wavelength.
	for s := 0; s < S; s++ {
		terms := make(map[int]float64, L)
		for l := 0; l < L; l++ {
			terms[bVar(s, l)] = 1
		}
		prob.LP.AddConstraint(lp.EQ, 1, terms)
	}

	// Eq. 2 (clique form): per (ring, segment) with >= 2 paths, per λ. The
	// right-hand side is y_λ rather than 1 — equivalent for integral points
	// (b ≤ y forces every term to 0 when y_λ = 0) but strictly tighter in
	// the LP relaxation, where it charges every congested segment against
	// the wavelength-activation objective.
	segPaths := make(map[[2]int][]int)
	for s, pi := range infos {
		for _, seg := range pi.Path.Segs {
			key := [2]int{pi.Path.RingID, seg}
			segPaths[key] = append(segPaths[key], s)
		}
	}
	// A segment's paths pairwise conflict, but conflicts chain across
	// segments (s1~s2 on one segment, s2~s3 on another, s1~s3 on a third),
	// so the maximal cliques of the whole conflict graph can be strictly
	// larger than any one segment's clique. Rows over maximal cliques
	// dominate the per-segment form — fewer rows, each tighter.
	cliques := maximalCliques(S, segPaths)
	maxClique := 1
	for _, c := range cliques {
		if len(c) > maxClique {
			maxClique = len(c)
		}
	}
	for _, c := range cliques {
		for l := 0; l < L; l++ {
			terms := make(map[int]float64, len(c)+1)
			for _, s := range c {
				terms[bVar(s, l)] = 1
			}
			terms[yVar(l)] = -1
			prob.LP.AddConstraint(lp.LE, 0, terms)
		}
	}
	// Any segment crossed by k paths needs k distinct wavelengths, so the
	// largest such clique is a valid lower bound on Σ y_λ. It lifts the
	// root relaxation's wavelength count off the fractional floor.
	if maxClique > 1 {
		terms := make(map[int]float64, L)
		for l := 0; l < L; l++ {
			terms[yVar(l)] = 1
		}
		prob.LP.AddConstraint(lp.GE, float64(maxClique), terms)
	}

	// Ring-capacity bound: a path is an arc on its ring, and paths sharing
	// a wavelength must be segment-disjoint (Eq. 2 collision avoidance is
	// physical — splitters do not relax it), so on ring r one wavelength
	// carries at most K_r segments' worth of arcs, K_r being the number of
	// segments of r any path crosses. The per-λ length rows are sums of
	// per-segment rows and hence dominated by the clique rows above, but
	// Chvátal-Gomory rounding of the aggregate survives domination: the
	// integral Σ y_λ must reach ⌈(Σ_{s on r} len_s)/K_r⌉, which the LP
	// cannot derive on its own.
	ringIDs := make([]int, 0, 4)
	ringSegs := make(map[int]map[int]bool)
	for _, pi := range infos {
		r := pi.Path.RingID
		if ringSegs[r] == nil {
			ringSegs[r] = make(map[int]bool)
			ringIDs = append(ringIDs, r)
		}
		for _, seg := range pi.Path.Segs {
			ringSegs[r][seg] = true
		}
	}
	sort.Ints(ringIDs)
	minColours := maxClique
	for _, r := range ringIDs {
		K := len(ringSegs[r])
		totalLen := 0
		for _, pi := range infos {
			if pi.Path.RingID == r {
				totalLen += len(pi.Path.Segs)
			}
		}
		if need := (totalLen + K - 1) / K; need > minColours {
			minColours = need
		}
	}
	if minColours > maxClique {
		terms := make(map[int]float64, L)
		for l := 0; l < L; l++ {
			terms[yVar(l)] = 1
		}
		prob.LP.AddConstraint(lp.GE, float64(minColours), terms)
	}

	minLoss := math.Inf(1)
	for _, pi := range infos {
		if pi.LossDB < minLoss {
			minLoss = pi.LossDB
		}
	}

	// Aggregated clique loss rows: within one clique at most one path
	// occupies λ (Eq. 2), so ilmax_λ ≥ Σ_{s∈C} L_s · b_{s,λ} holds with no
	// big-M at all. These rows anchor the γ·Σ ilmax objective term, which a
	// fractional relaxation otherwise dilutes to nearly zero by spreading
	// each b_{s,λ} across the palette, and they dominate the individual
	// Eqs. 5+7 rows of every splitter-free clique member (dropped below).
	cliqueCovered := make([]bool, S)
	for _, c := range cliques {
		for l := 0; l < L; l++ {
			terms := make(map[int]float64, len(c)+1)
			terms[ilMaxVar(l)] = 1
			for _, s := range c {
				terms[bVar(s, l)] = -infos[s].LossDB
			}
			prob.LP.AddConstraint(lp.GE, 0, terms)
		}
		for _, s := range c {
			cliqueCovered[s] = true
		}
	}

	// The same aggregation works for the splitter-aware loss rows of
	// Eqs. 5+7 (the McCormick form below): within a clique drawn from ONE
	// splitter-eligible sender n,
	//
	//	ilmax_λ ≥ Σ_{s∈C} (L_s + L_sp)·b_{s,λ} + L_sp·sp_n − L_sp
	//
	// is exact (at most one b is 1; the corners match the paper's il_s) and
	// dominates every member's individual row. Summed over λ it charges
	// each clique member its splitter stage as soon as sp_n rises, pricing
	// the wavelength-for-splitter trade at a hub node instead of leaving it
	// free in the relaxation. Cliques are taken within each sender's own
	// paths, so members of a mixed maximal clique still aggregate here.
	nodeCliqueCovered := make([]bool, S)
	for i, n := range spNodes {
		nodeSegPaths := make(map[[2]int][]int)
		for s, pi := range infos {
			if pi.SenderNode() != n {
				continue
			}
			for _, seg := range pi.Path.Segs {
				key := [2]int{pi.Path.RingID, seg}
				nodeSegPaths[key] = append(nodeSegPaths[key], s)
			}
		}
		for _, c := range maximalCliques(S, nodeSegPaths) {
			for l := 0; l < L; l++ {
				terms := make(map[int]float64, len(c)+2)
				terms[ilMaxVar(l)] = 1
				for _, s := range c {
					terms[bVar(s, l)] = -(infos[s].LossDB + w.SplitterStageDB)
				}
				terms[spVar(i)] = -w.SplitterStageDB
				prob.LP.AddConstraint(lp.GE, -w.SplitterStageDB, terms)
			}
			for _, s := range c {
				nodeCliqueCovered[s] = true
			}
		}
	}

	// Level cut: write each per-wavelength maximum as the integral of its
	// indicator, Σ_λ ilmax_λ = Σ_λ ∫ [ilmax_λ > t] dt. A wavelength hosting
	// a path with L_s > t has ilmax_λ > t, and the paths above the threshold
	// that pairwise conflict need distinct wavelengths, so the integrand is
	// at least the maximum clique size among {s : L_s > t} — and, below the
	// minimum loss, at least the number of open wavelengths: an open
	// wavelength hosting no path is feasible in the paper's model but never
	// uniquely optimal (dropping its y only improves Eq. 8), and first-use
	// normalisation yields optima where every open wavelength hosts a path
	// of loss ≥ Lmin. Integrating gives
	//
	//	Σ_λ ilmax_λ ≥ Lmin·Σ_λ y_λ + ∫_{Lmin}^∞ q(t) dt
	//
	// a single row that charges every (fractionally) open wavelength the
	// minimum loss — the conflict-number-versus-clique-number gap that pure
	// clique rows cannot see — while keeping at least one optimum feasible.
	var levelTail, prevLevel float64
	type lossLevel struct{ t, q float64 }
	var levels []lossLevel
	lossesAsc := make([]float64, S)
	for s, pi := range infos {
		lossesAsc[s] = pi.LossDB
	}
	sort.Float64s(lossesAsc)
	prevLevel = minLoss
	for i, t := range lossesAsc {
		if t <= minLoss || (i > 0 && t == lossesAsc[i-1]) {
			continue
		}
		q := 1 // at least one wavelength carries the paths at this level
		for _, c := range cliques {
			cnt := 0
			for _, s := range c {
				if infos[s].LossDB >= t {
					cnt++
				}
			}
			if cnt > q {
				q = cnt
			}
		}
		// The ring-capacity argument also applies level-wise: the arcs of
		// loss ≥ t on ring r need ⌈(their total length)/K_r⌉ wavelengths.
		for _, r := range ringIDs {
			lenAbove := 0
			for _, pi := range infos {
				if pi.Path.RingID == r && pi.LossDB >= t {
					lenAbove += len(pi.Path.Segs)
				}
			}
			if K := len(ringSegs[r]); lenAbove > 0 {
				if need := (lenAbove + K - 1) / K; need > q {
					q = need
				}
			}
		}
		levelTail += (t - prevLevel) * float64(q)
		levels = append(levels, lossLevel{t: t, q: float64(q)})
		prevLevel = t
	}
	if S > 0 {
		terms := make(map[int]float64, 2*L)
		for l := 0; l < L; l++ {
			terms[ilMaxVar(l)] = 1
			terms[yVar(l)] = -minLoss
		}
		prob.LP.AddConstraint(lp.GE, levelTail, terms)
	}

	// Splitter-conditional level rows: with sp_n = 0, Eq. 4 gives each of
	// node n's paths its own wavelength, so above threshold t at least
	// #{paths of n with loss ≥ t} wavelengths carry ilmax_λ ≥ t — a larger
	// integrand than the clique count wherever a hub's fan-out exceeds the
	// clique number. Interpolating between the sp = 0 tail and the
	// unconditional one keeps the row valid at both splitter values:
	//
	//	Σ_λ ilmax_λ − Lmin·Σ_λ y_λ + (tail_n − tail)·sp_n ≥ tail_n
	for i, n := range spNodes {
		var tailN float64
		prev := minLoss
		for _, lv := range levels {
			cnt := 0
			for _, pi := range infos {
				if pi.SenderNode() == n && pi.LossDB >= lv.t {
					cnt++
				}
			}
			q := lv.q
			if float64(cnt) > q {
				q = float64(cnt)
			}
			tailN += (lv.t - prev) * q
			prev = lv.t
		}
		if tailN > levelTail+1e-9 {
			terms := make(map[int]float64, 2*L+1)
			for l := 0; l < L; l++ {
				terms[ilMaxVar(l)] = 1
				terms[yVar(l)] = -minLoss
			}
			terms[spVar(i)] = tailN - levelTail
			prob.LP.AddConstraint(lp.GE, tailN, terms)
		}
	}

	// Eq. 3 linearisation: b_{s,λ} ≤ y_λ (skipped for paths already covered
	// by a clique row, which dominates it); y binary; symmetry y_λ ≥ y_{λ+1}.
	for s := 0; s < S; s++ {
		if cliqueCovered[s] {
			continue
		}
		for l := 0; l < L; l++ {
			prob.LP.AddConstraint(lp.LE, 0, map[int]float64{bVar(s, l): 1, yVar(l): -1})
		}
	}
	for l := 0; l < L; l++ {
		prob.LP.AddConstraint(lp.LE, 1, map[int]float64{yVar(l): 1})
	}
	for l := 0; l+1 < L; l++ {
		prob.LP.AddConstraint(lp.LE, 0, map[int]float64{yVar(l + 1): 1, yVar(l): -1})
	}

	// Wavelength labels are interchangeable, so every assignment can be
	// relabelled to first-use order (path s introduces at most one new
	// wavelength, hence uses some λ ≤ s). Fixing b_{s,λ} = 0 for λ > s cuts
	// the symmetric copies out of the search tree; the rows are singletons,
	// which the MILP presolve turns into variable bounds — for free at the
	// LP level. The incumbent is normalised below to honour the same order.
	for s := 0; s < S && s < L-1; s++ {
		for l := s + 1; l < L; l++ {
			prob.LP.AddConstraint(lp.LE, 0, map[int]float64{bVar(s, l): 1})
		}
	}

	// Eq. 4: per multi-sender node and λ, sharing forces the splitter
	// binary. The paper states the constraint for SRing's two-sender
	// nodes; with R_n sender rings (XRing chords can exceed two) the
	// generalisation is Σ b ≤ 1 + (R_n − 1)·sp: without a splitter only
	// one sender may use λ, with one the node's full complement may.
	for i, n := range spNodes {
		var fromNode []int
		for s, pi := range infos {
			if pi.SenderNode() == n {
				fromNode = append(fromNode, s)
			}
		}
		ringCount := float64(len(nodeRings[n]))
		for l := 0; l < L; l++ {
			terms := make(map[int]float64, len(fromNode)+1)
			for _, s := range fromNode {
				terms[bVar(s, l)] = 1
			}
			terms[spVar(i)] = -(ringCount - 1)
			prob.CoverRows = append(prob.CoverRows, len(prob.LP.Constraints))
			prob.LP.AddConstraint(lp.LE, 1, terms)
		}
		prob.LP.AddConstraint(lp.LE, 1, map[int]float64{spVar(i): 1})
	}

	// Node-degree cut: without a splitter, Eq. 4 gives each of a node's
	// paths its own wavelength, so Σ y_λ ≥ outdeg(n); with one, the node's
	// paths still need q1_n = max(their own per-segment load, ⌈outdeg/R_n⌉)
	// wavelengths (same-segment arcs conflict regardless of splitters, and
	// Eq. 4 admits at most R_n of them per λ). The linear interpolation
	//
	//	Σ_λ y_λ + (outdeg(n) − q1_n)·sp_n ≥ outdeg(n)
	//
	// is valid at both sp values, hence for every integral point. This is
	// the bound clique rows cannot see: MPEG's hub sends 11 paths across
	// two rings, so sp = 0 forces all 11 wavelengths open even though the
	// segment-conflict clique number is only 7.
	for i, n := range spNodes {
		outdeg := 0
		q1 := 1
		load := make(map[[2]int]int)
		for _, pi := range infos {
			if pi.SenderNode() != n {
				continue
			}
			outdeg++
			for _, seg := range pi.Path.Segs {
				key := [2]int{pi.Path.RingID, seg}
				load[key]++
				if load[key] > q1 {
					q1 = load[key]
				}
			}
		}
		if c := (outdeg + len(nodeRings[n]) - 1) / len(nodeRings[n]); c > q1 {
			q1 = c
		}
		if outdeg <= q1 || outdeg <= minColours {
			continue
		}
		terms := make(map[int]float64, L+1)
		for l := 0; l < L; l++ {
			terms[yVar(l)] = 1
		}
		terms[spVar(i)] = float64(outdeg - q1)
		prob.CoverRows = append(prob.CoverRows, len(prob.LP.Constraints))
		prob.LP.AddConstraint(lp.GE, float64(outdeg), terms)
	}

	// Eqs. 5+6: il^Smax ≥ L_s + L_sp · sp_{n(s)}.
	for _, pi := range infos {
		terms := map[int]float64{ilSmaxVar: 1}
		if i, ok := spIndex[pi.SenderNode()]; ok {
			terms[spVar(i)] = -w.SplitterStageDB
		}
		prob.LP.AddConstraint(lp.GE, pi.LossDB, terms)
	}

	// Eqs. 5+7: the paper writes ilmax_λ ≥ il_s − Ξ(1 − b_{s,λ}) with a
	// big-M Ξ, whose LP relaxation is nearly vacuous (a fractional b buys
	// back Ξ(1 − b) of slack). Because il_s = L_s + L_sp·sp_{n(s)} involves
	// at most one binary besides b, the product il_s·b_{s,λ} linearises
	// exactly instead — McCormick on the sp·b product:
	//
	//	ilmax_λ ≥ (L_s + L_sp)·b_{s,λ} + L_sp·sp_{n(s)} − L_sp
	//
	// (check the four corners: b=1,sp=1 → L_s+L_sp; b=1,sp=0 → L_s;
	// b=0 → ≤ 0). Splitter-free paths reduce to ilmax_λ ≥ L_s·b_{s,λ},
	// which the aggregated clique row already dominates for covered paths.
	for s, pi := range infos {
		spI, hasSp := spIndex[pi.SenderNode()]
		for l := 0; l < L; l++ {
			if hasSp {
				if nodeCliqueCovered[s] {
					continue // the sender-clique row above dominates this one
				}
				prob.LP.AddConstraint(lp.GE, -w.SplitterStageDB, map[int]float64{
					ilMaxVar(l): 1,
					bVar(s, l):  -(pi.LossDB + w.SplitterStageDB),
					spVar(spI):  -w.SplitterStageDB,
				})
			} else if !cliqueCovered[s] {
				prob.LP.AddConstraint(lp.GE, 0, map[int]float64{
					ilMaxVar(l): 1,
					bVar(s, l):  -pi.LossDB,
				})
			}
		}
	}

	// Branch on the structure of the solution before its details: fixing a
	// y_λ decides whether a wavelength exists at all (and the symmetry
	// ordering rows then cascade), and a splitter binary moves every loss
	// row of its node; the b assignment binaries go last, highest-loss
	// paths first — a lossy path's wavelength choice moves ilmax rows the
	// most, so deciding it early forces the per-λ maxima (the last
	// fractional slack in the relaxation) instead of grinding through
	// interchangeable low-loss assignments.
	prio := make([]int, numVars)
	for l := 0; l < L; l++ {
		prio[yVar(l)] = 2
	}
	for i := range spNodes {
		prio[spVar(i)] = 1
	}
	lossRank := make([]int, S)
	for s := range lossRank {
		lossRank[s] = s
	}
	sort.SliceStable(lossRank, func(a, b int) bool { return infos[lossRank[a]].LossDB > infos[lossRank[b]].LossDB })
	for r, s := range lossRank {
		for l := 0; l < L; l++ {
			prio[bVar(s, l)] = -r
		}
	}

	return &MILPModel{Prob: prob, Priority: prio, s: S, l: L, spNodes: spNodes}, nil
}

// solveModel runs the built model through the branch-and-cut solver and
// decodes the result.
func solveModel(ctx context.Context, m *MILPModel, infos []PathInfo, incumbent *Assignment, w Weights, timeLimit time.Duration, parallelism, cutRounds int, reg *obs.Registry, parent *obs.Span) (*Assignment, SolveInfo, error) {
	S, L := m.s, m.l
	numLambda := L
	msp := parent.StartSpan("wavelength.milp")
	defer msp.End()
	msp.SetInt("num_lambda", int64(numLambda))
	msp.SetInt("binaries", int64(S*L+L+len(m.spNodes)))
	msp.SetInt("vars", int64(m.Prob.LP.NumVars))
	msp.SetInt("constraints", int64(len(m.Prob.LP.Constraints)))
	msp.SetBool("seeded", incumbent != nil)

	opts := milp.Options{TimeLimit: timeLimit, Parallelism: parallelism, CutRounds: cutRounds, BranchPriority: m.Priority, Obs: msp, Registry: reg}
	if incumbent != nil {
		opts.Incumbent = m.IncumbentVector(infos, incumbent, w)
	}
	res, err := milp.SolveContext(ctx, m.Prob, opts)
	if err != nil {
		return nil, SolveInfo{}, fmt.Errorf("wavelength: MILP solve: %w", err)
	}
	info := SolveInfo{
		Exact:           res.Status == milp.Optimal,
		Bound:           res.Bound,
		Nodes:           res.Nodes,
		Gap:             res.Gap(),
		TimeLimitHit:    res.TimeLimitHit,
		Cancelled:       res.Cancelled,
		NodeFingerprint: res.NodeFingerprint,
	}
	msp.SetBool("exact", info.Exact)
	msp.SetFloat("bound", info.Bound)
	msp.SetInt("nodes", int64(info.Nodes))
	msp.SetFloat("milp_gap", info.Gap)
	msp.SetBool("time_limit_hit", info.TimeLimitHit)
	msp.SetBool("cancelled", info.Cancelled)
	switch res.Status {
	case milp.Optimal, milp.Feasible:
		a, err := m.Decode(res.X)
		if err != nil {
			return nil, SolveInfo{}, err
		}
		return a, info, nil
	case milp.Infeasible:
		return nil, SolveInfo{}, fmt.Errorf("wavelength: MILP %w with %d wavelengths", ErrInfeasible, numLambda)
	default:
		return nil, info, nil // no solution found within limits
	}
}

// maximalCliques lists the maximal cliques (size >= 2) of the path conflict
// graph, where two paths conflict when they cross a common (ring, segment).
// Bron-Kerbosch with vertices processed in index order keeps the enumeration
// deterministic; path counts are small (tens), so the worst case is a
// non-issue. Each clique is sorted ascending and the list is ordered
// lexicographically.
func maximalCliques(S int, segPaths map[[2]int][]int) [][]int {
	adj := make([][]bool, S)
	for i := range adj {
		adj[i] = make([]bool, S)
	}
	for _, ps := range segPaths {
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				adj[ps[i]][ps[j]] = true
				adj[ps[j]][ps[i]] = true
			}
		}
	}
	var out [][]int
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(p) == 0 && len(x) == 0 {
			if len(r) >= 2 {
				out = append(out, append([]int(nil), r...))
			}
			return
		}
		for i := 0; i < len(p); i++ {
			v := p[i]
			var p2, x2 []int
			for _, u := range p {
				if adj[v][u] {
					p2 = append(p2, u)
				}
			}
			for _, u := range x {
				if adj[v][u] {
					x2 = append(x2, u)
				}
			}
			bk(append(r, v), p2, x2)
			p = append(p[:i:i], p[i+1:]...)
			i--
			x = append(x, v)
		}
	}
	all := make([]int, S)
	for i := range all {
		all[i] = i
	}
	bk(nil, all, nil)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}
