// Package milp implements a mixed-integer linear programming solver by
// LP-based branch and bound on top of sring/internal/lp.
//
// It stands in for the commercial MILP solver (Gurobi) used by the SRing
// paper: the wavelength-assignment model of paper Sec. III-B is built and
// solved through this package. The solver is exact when run to completion;
// with a time or node limit it returns the best incumbent found and the
// remaining optimality gap.
package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"sring/internal/lp"
	"sring/internal/obs"
)

// Problem is a minimisation MILP: the embedded LP plus integrality marks.
type Problem struct {
	LP lp.Problem
	// Integer[i] marks variable i as integral. Length must equal NumVars.
	Integer []bool
	// CoverRows optionally lists indices into LP.Constraints of rows with
	// knapsack structure over binary variables — after negating a ≥-row and
	// complementing negative coefficients they read Σ a'_j x̃_j ≤ b' with
	// a' > 0 over 0/1 variables — that the branch-and-cut layer targets for
	// lifted cover separation. Rows that turn out not to be knapsacks over
	// root-binary variables are skipped at solve time; out-of-range indices
	// fail Validate. The indices are remapped through presolve and row
	// prepping automatically.
	CoverRows []int
}

// Validate checks dimensions.
func (p *Problem) Validate() error {
	if err := p.LP.Validate(); err != nil {
		return err
	}
	if len(p.Integer) != p.LP.NumVars {
		return fmt.Errorf("milp: Integer has length %d, want %d", len(p.Integer), p.LP.NumVars)
	}
	for _, r := range p.CoverRows {
		if r < 0 || r >= len(p.LP.Constraints) {
			return fmt.Errorf("milp: CoverRows index %d out of range [0,%d)", r, len(p.LP.Constraints))
		}
	}
	return nil
}

// DefaultTimeLimit is the wall-clock budget applied when Options.TimeLimit
// is zero. It is the single default for the whole pipeline: the wavelength
// assignment and the public sring.Options pass a zero limit through to
// here rather than substituting their own.
const DefaultTimeLimit = 10 * time.Second

// Options tunes the branch-and-bound search.
type Options struct {
	// TimeLimit bounds the wall-clock search time. Zero means
	// DefaultTimeLimit (10 s). The deadline is enforced inside LP pivot
	// iterations too, so a single long relaxation cannot overshoot it.
	TimeLimit time.Duration
	// NodeLimit bounds the number of explored branch-and-bound nodes.
	// Zero means 200000.
	NodeLimit int
	// Parallelism is the number of workers evaluating LP relaxations of
	// frontier nodes concurrently: 0 means GOMAXPROCS, 1 means the plain
	// sequential solve. Workers evaluate the best-first frontier
	// speculatively while results are committed in the canonical heap
	// order (bound, then node sequence number), so the returned solution
	// — explored-node count, incumbents, bound, X — is bit-identical to
	// the sequential solve whenever the search completes within its
	// limits.
	Parallelism int
	// Incumbent optionally seeds the search with a known feasible solution
	// (e.g. from a heuristic); it is validated before use.
	Incumbent []float64
	// BranchPriority optionally ranks integer variables for branching:
	// among the fractional integer variables of a relaxation, one with the
	// highest priority is branched on, ties broken by fractionality. nil
	// means pure most-fractional branching. Length must equal NumVars when
	// set. Model-structure variables (e.g. wavelength activations) branched
	// before dependent assignment variables can shrink the tree by orders
	// of magnitude.
	BranchPriority []int
	// CutRounds caps the cutting-plane rounds run when the root relaxation
	// comes back fractional; nodes below the root run none (cutMaxDepth is
	// 0). Zero means the default (30); negative disables cut separation
	// entirely. Cuts are separated,
	// selected and purged only at canonical node consumption on the main
	// goroutine, so any Parallelism setting reproduces the same cuts —
	// and the same NodeFingerprint — bit for bit.
	CutRounds int
	// DisablePresolve skips the bound-propagation reduction.
	DisablePresolve bool
	// Obs, when non-nil, is the parent span under which the solve records
	// its telemetry: a milp.solve span (status, node count, bound, gap), a
	// milp.presolve span and gap-trajectory events (one per incumbent).
	// The milp.* and lp.* counters count through it, into the process
	// registry always and into Obs's trace when it has one.
	Obs *obs.Span
}

// Histograms in the process registry: per-node LP time, and each incumbent
// improvement as its objective decrease in micro-units.
var (
	nodeH     = obs.Default().Histogram("milp.node.ns")
	incDeltaH = obs.Default().Histogram("milp.incumbent.delta.micro")
)

// Status reports the outcome of a MILP solve.
type Status int

const (
	// Optimal: proven optimal.
	Optimal Status = iota
	// Feasible: a limit was reached; the returned solution is the best
	// incumbent but optimality is unproven.
	Feasible
	// Infeasible: no integral solution exists.
	Infeasible
	// Unknown: a limit was reached before any incumbent was found.
	Unknown
)

// String returns the status label.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	X         []float64 // best integral solution (valid for Optimal/Feasible)
	Objective float64   // objective of X
	Bound     float64   // proven lower bound on the optimum
	Nodes     int       // branch-and-bound nodes explored
	// TimeLimitHit reports that the wall-clock budget expired before the
	// search finished (the node limit alone does not set it).
	TimeLimitHit bool
	// NodeFingerprint is an FNV-1a hash folding in the (seq, bound,
	// active-cut signature) triple of every node at the moment it is
	// explored, in order — the cut signature hashes the cutting planes the
	// node inherited, so the fingerprint certifies the cut trajectory too.
	// It makes the determinism contract checkable: any Parallelism setting
	// must reproduce the sequential fingerprint bit for bit, because the
	// main loop alone pops nodes, separates cuts and commits results in
	// canonical heap order. Zero when branch and bound never ran (presolve
	// decided the instance).
	NodeFingerprint uint64
	// Cancelled reports that the context passed to SolveContext was
	// cancelled before the search finished. The result is still valid:
	// X is the best incumbent found (the seeded incumbent at worst) and
	// Bound the best proven bound at the moment of cancellation.
	Cancelled bool
}

// Gap returns the relative optimality gap (Objective − Bound) / |Objective|
// of the result: 0 for a proven optimum, +Inf when no incumbent exists or
// no finite bound was proven.
func (r *Result) Gap() float64 {
	if r.X == nil || math.IsInf(r.Objective, 0) || math.IsInf(r.Bound, -1) {
		return math.Inf(1)
	}
	g := (r.Objective - r.Bound) / math.Max(math.Abs(r.Objective), 1e-9)
	if g < 0 {
		return 0 // bound overshot the incumbent within tolerance
	}
	return g
}

const intTol = 1e-6

// fnv64Offset/fnv64Prime are the FNV-1a parameters used for the explored
// node fingerprint (hash/fnv is not used directly: the fingerprint mixes
// raw uint64 words, not bytes).
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// mixNode folds one explored node into the running fingerprint: its
// sequence number, its bound, and the signature of its active cut list
// (0 for a cut-free node).
func mixNode(h uint64, seq int, bound float64, cutSig uint64) uint64 {
	h ^= uint64(seq)
	h *= fnv64Prime
	h ^= math.Float64bits(bound)
	h *= fnv64Prime
	h ^= cutSig
	h *= fnv64Prime
	return h
}

// node is an unexplored subproblem: variable bound tightenings relative to
// the root, plus the parent's LP bound used as its search priority.
type node struct {
	lower map[int]float64
	upper map[int]float64
	bound float64
	depth int
	seq   int // tie-break for determinism
	// basis is the parent's optimal LP basis; the node's relaxation is
	// warm-started from it by dual simplex (both children share the one
	// snapshot, which is immutable once taken). nil means solve cold.
	basis *lp.Basis
	// cuts is the active cut list: exactly the cut rows of the LP that
	// produced basis, so the warm start stays shape-consistent. Fixed at
	// node creation and immutable from then on (the cutter swaps in a new
	// list after its rounds; it never mutates one), which is what lets
	// speculative workers solve the node without any cut-pool
	// coordination. cutSig is foldCuts(cuts), precomputed for mixNode.
	cuts   []*cut
	cutSig uint64
	// pcVar/pcUp/pcFrac record the branch that created this node: the
	// variable branched on, whether this is the up (ceil) child, and the
	// variable's fractional part in the parent relaxation. When the
	// node's own relaxation is consumed, the bound degradation per unit
	// of fractionality becomes a pseudocost observation for pcVar.
	// pcVar is -1 at the root (no observation).
	pcVar  int
	pcUp   bool
	pcFrac float64
	// est is the pseudocost best-case objective estimate for the subtree
	// (parent objective plus the summed cheaper-direction degradations of
	// its fractional variables). The work-stealing pool ranks prefetch
	// candidates by it; the heap and the commit order never look at it,
	// so est cannot affect results.
	est float64
}

// nodeLess is the canonical search order: best bound first, then deeper
// nodes (incumbents surface sooner), then the higher sequence number. The
// heap and the speculative prefetcher both rank by it, which is what makes
// the parallel solve commit nodes in the sequential order.
func nodeLess(a, b *node) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	if a.depth != b.depth {
		return a.depth > b.depth // deeper first: find incumbents sooner
	}
	return a.seq > b.seq
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return nodeLess(h[i], h[j]) }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// reliabilityMinObs is the reliability-branching threshold: a variable's
// own pseudocost average is trusted only after this many observations in
// the relevant direction; below it the global average stands in, and with
// no observations at all the unit estimate makes the product score reduce
// to most-fractional branching (f·(1−f) is strictly increasing in
// min(f, 1−f)).
const reliabilityMinObs = 4

// pseudocosts tracks, per integer variable and branch direction, the
// average objective degradation per unit of fractionality observed when a
// child node's relaxation was solved. Only the main branch-and-bound loop
// updates it — at the moment it consumes a child's solution, in canonical
// node order — so parallel runs accumulate the identical statistics and
// make the identical branching decisions.
type pseudocosts struct {
	downSum, upSum []float64
	downCnt, upCnt []int
	// Global running averages across all variables: the fallback for
	// variables with fewer than reliabilityMinObs observations.
	gDownSum, gUpSum float64
	gDownCnt, gUpCnt int
}

func newPseudocosts(n int) *pseudocosts {
	return &pseudocosts{
		downSum: make([]float64, n), upSum: make([]float64, n),
		downCnt: make([]int, n), upCnt: make([]int, n),
	}
}

// estimate returns the per-unit degradation estimate for branching
// variable i in the given direction.
func (pc *pseudocosts) estimate(i int, up bool) float64 {
	if up {
		if pc.upCnt[i] >= reliabilityMinObs {
			return pc.upSum[i] / float64(pc.upCnt[i])
		}
		if pc.gUpCnt > 0 {
			return pc.gUpSum / float64(pc.gUpCnt)
		}
		return 1
	}
	if pc.downCnt[i] >= reliabilityMinObs {
		return pc.downSum[i] / float64(pc.downCnt[i])
	}
	if pc.gDownCnt > 0 {
		return pc.gDownSum / float64(pc.gDownCnt)
	}
	return 1
}

// observe records the bound degradation of a consumed child relaxation
// against the branch that created the node. delta is divided by the
// branching distance (f down, 1−f up), the classic pseudocost statistic.
func (pc *pseudocosts) observe(nd *node, objective float64) {
	if nd.pcVar < 0 {
		return
	}
	delta := math.Max(0, objective-nd.bound)
	if nd.pcUp {
		per := delta / (1 - nd.pcFrac)
		pc.upSum[nd.pcVar] += per
		pc.upCnt[nd.pcVar]++
		pc.gUpSum += per
		pc.gUpCnt++
	} else {
		per := delta / nd.pcFrac
		pc.downSum[nd.pcVar] += per
		pc.downCnt[nd.pcVar]++
		pc.gDownSum += per
		pc.gDownCnt++
	}
}

// selectBranchVar picks the branching variable: within the highest
// BranchPriority class holding a fractional variable, the one maximising
// the pseudocost product score max(downEst·f, ε)·max(upEst·(1−f), ε).
// Ties (and the cold start, where every estimate is 1 or the shared
// global average) resolve to the most fractional variable, lowest index
// first — the same choice mostFractional makes.
func (pc *pseudocosts) selectBranchVar(p *Problem, prio []int, x []float64) int {
	const eps = 1e-12
	best, bestScore, bestDist, bestPrio := -1, 0.0, 0.0, math.MinInt
	for i, isInt := range p.Integer {
		if !isInt {
			continue
		}
		f := x[i] - math.Floor(x[i])
		dist := math.Min(f, 1-f)
		if dist <= intTol {
			continue
		}
		pr := 0
		if prio != nil {
			pr = prio[i]
		}
		if pr < bestPrio {
			continue
		}
		score := math.Max(pc.estimate(i, false)*f, eps) * math.Max(pc.estimate(i, true)*(1-f), eps)
		if pr > bestPrio || score > bestScore || (score == bestScore && dist > bestDist) {
			best, bestScore, bestDist, bestPrio = i, score, dist, pr
		}
	}
	return best
}

// subtreeEstimate is the pseudocost best-case objective for a node about
// to be branched: its relaxation objective plus, for every fractional
// integer variable, the cheaper of the two per-direction degradations.
// Used only to rank speculative work (node.est).
func (pc *pseudocosts) subtreeEstimate(p *Problem, objective float64, x []float64) float64 {
	est := objective
	for i, isInt := range p.Integer {
		if !isInt {
			continue
		}
		f := x[i] - math.Floor(x[i])
		if math.Min(f, 1-f) <= intTol {
			continue
		}
		est += math.Min(pc.estimate(i, false)*f, pc.estimate(i, true)*(1-f))
	}
	return est
}

// Solve runs presolve followed by branch and bound with no cancellation
// hook. See SolveContext.
func Solve(p *Problem, opt Options) (*Result, error) {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext runs presolve followed by branch and bound. The returned
// error is non-nil only for malformed input (including an infeasible or
// fractional seeded incumbent).
//
// ctx unifies with the wall-clock budget: a context deadline earlier than
// TimeLimit tightens it, and cancellation stops the search gracefully —
// the branch-and-bound loop checks ctx between nodes and the LP pivot
// loops poll ctx.Done() at their deadline cadence, so the solve returns
// its best incumbent promptly with Result.Cancelled set instead of an
// error.
func SolveContext(ctx context.Context, p *Problem, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opt.BranchPriority != nil && len(opt.BranchPriority) != p.LP.NumVars {
		return nil, fmt.Errorf("milp: BranchPriority has length %d, want %d", len(opt.BranchPriority), p.LP.NumVars)
	}
	if opt.Incumbent != nil {
		// Validate against the original problem before any reduction so
		// the error contract is independent of presolve.
		if _, err := checkIncumbent(p, opt.Incumbent); err != nil {
			return nil, fmt.Errorf("milp: bad incumbent: %w", err)
		}
	}
	if !opt.DisablePresolve {
		psp := opt.Obs.StartSpan("milp.presolve")
		pr := presolve(p)
		psp.SetInt("vars", int64(p.LP.NumVars))
		psp.SetInt("fixed", int64(len(pr.fixed)))
		psp.SetBool("infeasible", pr.infeasible)
		if pr.reduced != nil {
			psp.SetInt("reduced_vars", int64(pr.reduced.LP.NumVars))
			psp.SetInt("reduced_constraints", int64(len(pr.reduced.LP.Constraints)))
		}
		psp.End()
		psp.Count("milp.presolve.fixed", int64(len(pr.fixed)))
		if pr.infeasible {
			return &Result{Status: Infeasible, Objective: math.Inf(1), Bound: math.Inf(1)}, nil
		}
		if len(pr.fixed) > 0 {
			if pr.reduced == nil {
				// Every variable fixed; verify the assignment satisfies
				// all rows.
				x := pr.expand(nil, p.LP.NumVars)
				obj, err := checkIncumbent(p, x)
				if err != nil {
					return &Result{Status: Infeasible, Objective: math.Inf(1), Bound: math.Inf(1)}, nil
				}
				return &Result{Status: Optimal, X: x, Objective: obj, Bound: obj}, nil
			}
			sub := opt
			sub.DisablePresolve = true
			if opt.Incumbent != nil {
				shrunk, err := pr.shrink(opt.Incumbent)
				if err != nil {
					return nil, err
				}
				sub.Incumbent = shrunk
			}
			if opt.BranchPriority != nil {
				prio := make([]int, pr.reduced.LP.NumVars)
				for i, j := range pr.oldToNew {
					if j >= 0 {
						prio[j] = opt.BranchPriority[i]
					}
				}
				sub.BranchPriority = prio
			}
			res, err := solveBB(ctx, pr.reduced, sub)
			if err != nil {
				return nil, err
			}
			if res.X != nil {
				res.X = pr.expand(res.X, p.LP.NumVars)
			}
			if res.Status == Optimal || res.Status == Feasible {
				res.Objective += pr.constant
			}
			if !math.IsInf(res.Bound, 0) {
				res.Bound += pr.constant
			}
			return res, nil
		}
	}
	return solveBB(ctx, p, opt)
}

// solveBB is the branch-and-bound core.
func solveBB(ctx context.Context, p *Problem, opt Options) (*Result, error) {
	sp := opt.Obs.StartSpan("milp.solve")
	nodesC := sp.Counter("milp.nodes")
	incumbentsC := sp.Counter("milp.incumbents")
	sp.SetInt("vars", int64(p.LP.NumVars))
	sp.SetInt("constraints", int64(len(p.LP.Constraints)))

	timeLimit := opt.TimeLimit
	if timeLimit == 0 {
		timeLimit = DefaultTimeLimit
	}
	nodeLimit := opt.NodeLimit
	if nodeLimit == 0 {
		nodeLimit = 200000
	}
	deadline := time.Now().Add(timeLimit)
	// A context deadline earlier than the time limit tightens the budget;
	// both are enforced by the same deadline checks.
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	// Convert singleton/empty/duplicate rows into root variable bounds so
	// every node solves a smaller bounded-variable LP.
	pp := prepRelaxation(p, sp)
	if pp == nil {
		sp.SetString("status", Infeasible.String())
		sp.End()
		return &Result{Status: Infeasible, Objective: math.Inf(1), Bound: math.Inf(1)}, nil
	}
	sp.SetInt("prepped_constraints", int64(len(pp.p.LP.Constraints)))
	// LP solves share the exact same deadline: the simplex checks it
	// between pivots and returns IterLimit, which the search records as an
	// unresolved node, so one long relaxation cannot overshoot TimeLimit.
	eval, err := newEvaluator(pp, opt.Parallelism, deadline, ctx.Done(), sp)
	if err != nil {
		sp.End()
		return nil, err
	}
	defer eval.close()

	// Branch and cut: the cutter runs on this goroutine only, at canonical
	// node consumption, against its own solver arena (the tableau of a
	// consumed node is re-established there by a canonical refactorisation
	// of its basis, so separation is independent of which worker solved it).
	var ct *cutter
	if cutsEnabled(opt) {
		crs, cerr := newRelaxSolver(pp, ctx.Done())
		if cerr != nil {
			sp.End()
			return nil, cerr
		}
		ct = newCutter(pp, crs, opt, sp)
		defer ct.flush()
	}

	res := &Result{Status: Unknown, Objective: math.Inf(1), Bound: math.Inf(-1)}
	defer func() {
		sp.SetString("status", res.Status.String())
		sp.SetInt("nodes", int64(res.Nodes))
		if res.X != nil {
			sp.SetFloat("objective", res.Objective)
		}
		sp.SetFloat("bound", res.Bound)
		sp.SetFloat("gap", res.Gap())
		sp.End()
	}()
	if opt.Incumbent != nil {
		obj, err := checkIncumbent(p, opt.Incumbent)
		if err != nil {
			return nil, fmt.Errorf("milp: bad incumbent: %w", err)
		}
		res.X = append([]float64(nil), opt.Incumbent...)
		res.Objective = obj
		res.Status = Feasible
		eval.publish(obj)
	}

	seq := 0
	unresolved := false // an LP hit its limit: the optimality proof is lost
	pc := newPseudocosts(p.LP.NumVars)
	res.NodeFingerprint = fnv64Offset
	open := &nodeHeap{{lower: map[int]float64{}, upper: map[int]float64{}, bound: math.Inf(-1), pcVar: -1, est: math.Inf(-1)}}
	heap.Init(open)

	// Each basis snapshot is shared by exactly two children; once both have
	// been warm-started (popped and solved) the memoised LU factor attached
	// to the snapshot can never be needed again by the sequential order, so
	// it is dropped to bound the memory held by the open-node frontier.
	// DropFactor only clears the memo pointer — a speculative solver that
	// already loaded the factor keeps using its own reference, and one that
	// misses simply refactorises (counters are invariant to memo hits).
	basisUses := make(map[*lp.Basis]int8)
	release := func(nd *node) {
		if nd.basis == nil {
			return
		}
		if n := basisUses[nd.basis]; n > 1 {
			basisUses[nd.basis] = n - 1
		} else {
			delete(basisUses, nd.basis)
			nd.basis.DropFactor()
		}
	}

	for open.Len() > 0 {
		if res.Nodes >= nodeLimit || ctx.Err() != nil || time.Now().After(deadline) {
			// The best open bound is the proven lower bound.
			res.Bound = math.Max(res.Bound, (*open)[0].bound)
			res.TimeLimitHit = time.Now().After(deadline)
			res.Cancelled = ctx.Err() != nil
			return res, nil
		}
		nd := heap.Pop(open).(*node)
		if nd.bound >= res.Objective-1e-9 {
			// Everything remaining is at least as bad; done.
			res.Bound = math.Max(res.Bound, math.Min(nd.bound, res.Objective))
			break
		}
		res.Nodes++
		res.NodeFingerprint = mixNode(res.NodeFingerprint, nd.seq, nd.bound, nd.cutSig)
		nodesC.Add(1)

		nodeStart := time.Now()
		sol, bas, err := eval.solve(nd, open)
		nodeH.RecordSince(nodeStart)
		if err != nil {
			return nil, err
		}
		release(nd)
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return nil, errors.New("milp: LP relaxation unbounded; bound integer variables")
		case lp.IterLimit:
			// Cannot trust this node's bound; skip it conservatively
			// (incumbents stay correct, the optimality proof is lost).
			unresolved = true
			continue
		}
		// Pseudocost observation for the branch that created this node,
		// recorded before any pruning so the statistics are a pure
		// function of the canonical exploration order.
		pc.observe(nd, sol.Objective)
		if sol.Objective >= res.Objective-1e-9 {
			continue // bound: cannot improve
		}
		branchVar := pc.selectBranchVar(p, opt.BranchPriority, sol.X)
		if ct != nil && branchVar >= 0 && bas != nil {
			// Cutting-plane rounds: tighten the fractional relaxation
			// before branching. A pruned=true return means the cut-
			// augmented LP is infeasible — valid cuts only remove
			// fractional points, so the subtree holds no integral solution.
			csol, cbas, pruned := ct.run(nd, sol, bas, deadline)
			if pruned {
				continue
			}
			if csol != nil {
				sol, bas = csol, cbas
				if sol.Objective >= res.Objective-1e-9 {
					continue // the moved bound prunes the node
				}
				branchVar = pc.selectBranchVar(p, opt.BranchPriority, sol.X)
			}
		}
		if branchVar < 0 {
			// Integral: new incumbent.
			x := append([]float64(nil), sol.X...)
			for i, isInt := range p.Integer {
				if isInt {
					x[i] = math.Round(x[i])
				}
			}
			if len(nd.cuts) > 0 {
				// The point came from a cut-augmented LP; re-verify against
				// the original rows so correctness never rests on cut
				// validity alone.
				if _, verr := checkIncumbent(p, x); verr != nil {
					continue
				}
			}
			if prev := res.Objective; !math.IsInf(prev, 1) {
				incDeltaH.Record(int64((prev - sol.Objective) * 1e6))
			}
			res.X = x
			res.Objective = sol.Objective
			res.Status = Feasible
			incumbentsC.Add(1)
			eval.publish(res.Objective)
			if sp.Enabled() {
				// Gap trajectory point: the new incumbent against the
				// tightest proven lower bound at this moment (the best
				// open node, or this node's own relaxation when the
				// frontier is exhausted).
				bound := sol.Objective
				if open.Len() > 0 && (*open)[0].bound < bound {
					bound = (*open)[0].bound
				}
				sp.Event("incumbent", res.Objective, bound)
			}
			continue
		}
		if nd.depth == 0 && res.Nodes == 1 {
			// Root primal heuristic: a deterministic rounding dive seeds the
			// incumbent so bound pruning bites from the very first branches.
			if hs, herr := newRelaxSolver(pp, ctx.Done()); herr == nil {
				if x, obj, ok := diveHeuristic(pp, hs, opt.BranchPriority, sol, bas, nd.cuts, deadline, sp); ok && obj < res.Objective-1e-9 {
					if prev := res.Objective; !math.IsInf(prev, 1) {
						incDeltaH.Record(int64((prev - obj) * 1e6))
					}
					res.X = x
					res.Objective = obj
					res.Status = Feasible
					incumbentsC.Add(1)
					eval.publish(obj)
					if sp.Enabled() {
						sp.Event("incumbent", obj, sol.Objective)
					}
				}
			}
		}
		v := sol.X[branchVar]
		frac := v - math.Floor(v)
		est := pc.subtreeEstimate(p, sol.Objective, sol.X)
		// Children inherit the node's final cut rows (the LP that produced
		// bas), minus aged loose cuts — inherit purges those together with
		// a matching basis surgery, so the warm start stays shape-exact.
		childCuts, childBas, childSig := nd.cuts, bas, nd.cutSig
		if ct != nil {
			childCuts, childBas, childSig = ct.inherit(nd, bas)
		}
		down := child(nd, &seq, sol.Objective)
		down.upper[branchVar] = math.Floor(v)
		down.basis, down.cuts, down.cutSig = childBas, childCuts, childSig
		down.pcVar, down.pcUp, down.pcFrac, down.est = branchVar, false, frac, est
		up := child(nd, &seq, sol.Objective)
		up.lower[branchVar] = math.Ceil(v)
		up.basis, up.cuts, up.cutSig = childBas, childCuts, childSig
		up.pcVar, up.pcUp, up.pcFrac, up.est = branchVar, true, frac, est
		if childBas != nil {
			basisUses[childBas] = 2
		}
		heap.Push(open, down)
		heap.Push(open, up)
	}

	if unresolved && time.Now().After(deadline) {
		res.TimeLimitHit = true
	}
	if unresolved && ctx.Err() != nil {
		res.Cancelled = true
	}
	switch {
	case res.X != nil && !unresolved:
		res.Status = Optimal
		if res.Bound == math.Inf(-1) || res.Bound > res.Objective {
			res.Bound = res.Objective
		}
	case res.X != nil:
		res.Status = Feasible // unresolved nodes were skipped: unproven
	case unresolved:
		res.Status = Unknown
	default:
		res.Status = Infeasible
	}
	return res, nil
}

func child(parent *node, seq *int, bound float64) *node {
	c := &node{
		lower: make(map[int]float64, len(parent.lower)+1),
		upper: make(map[int]float64, len(parent.upper)+1),
		bound: bound,
		depth: parent.depth + 1,
		pcVar: -1, // callers that branch overwrite; heuristic probes never observe
		est:   bound,
	}
	for k, v := range parent.lower {
		c.lower[k] = v
	}
	for k, v := range parent.upper {
		c.upper[k] = v
	}
	*seq++
	c.seq = *seq
	return c
}

// mostFractional returns the integer variable to branch on — the highest
// priority class first, farthest from integral within it — or -1 if all
// integer variables are integral. prio may be nil (uniform priority).
func mostFractional(p *Problem, prio []int, x []float64) int {
	best, bestDist, bestPrio := -1, intTol, math.MinInt
	for i, isInt := range p.Integer {
		if !isInt {
			continue
		}
		f := x[i] - math.Floor(x[i])
		dist := math.Min(f, 1-f)
		if dist <= intTol {
			continue
		}
		pr := 0
		if prio != nil {
			pr = prio[i]
		}
		if pr > bestPrio || (pr == bestPrio && dist > bestDist) {
			best, bestDist, bestPrio = i, dist, pr
		}
	}
	return best
}

// checkIncumbent verifies feasibility and integrality of a candidate
// solution and returns its objective value.
func checkIncumbent(p *Problem, x []float64) (float64, error) {
	if len(x) != p.LP.NumVars {
		return 0, fmt.Errorf("length %d, want %d", len(x), p.LP.NumVars)
	}
	for i, v := range x {
		if v < -intTol {
			return 0, fmt.Errorf("variable %d negative (%v)", i, v)
		}
		if p.Integer[i] && math.Abs(v-math.Round(v)) > intTol {
			return 0, fmt.Errorf("variable %d not integral (%v)", i, v)
		}
	}
	for i, c := range p.LP.Constraints {
		var lhs float64
		for v, coeff := range c.Coeffs {
			lhs += coeff * x[v]
		}
		feasible := true
		switch c.Rel {
		case lp.LE:
			feasible = lhs <= c.RHS+1e-6
		case lp.GE:
			feasible = lhs >= c.RHS-1e-6
		case lp.EQ:
			feasible = math.Abs(lhs-c.RHS) <= 1e-6
		}
		if !feasible {
			return 0, fmt.Errorf("constraint %d violated (lhs=%v rhs=%v)", i, lhs, c.RHS)
		}
	}
	var obj float64
	if p.LP.Objective != nil {
		for i, v := range x {
			obj += p.LP.Objective[i] * v
		}
	}
	return obj, nil
}
