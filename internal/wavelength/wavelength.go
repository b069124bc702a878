// Package wavelength assigns wavelengths to the reserved signal paths of a
// WRONoC ring router.
//
// It implements the SRing paper's MILP model (Sec. III-B, Eqs. 1-8), which
// jointly minimises the number of used wavelengths, the worst-case insertion
// loss over all signal paths, and the sum of per-wavelength worst-case
// insertion losses — with a binary per node deciding whether its two senders
// share a wavelength and therefore need a PDN splitter (Eq. 4).
//
// Because the MILP is NP-hard, the package also provides a deterministic
// DSATUR colouring followed by splitter-aware hill climbing on the same
// objective. The hill-climbing solution seeds the MILP as an incumbent; on
// instances too large for the exact solver within the time budget, the
// incumbent is returned.
package wavelength

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/ring"
	"sring/internal/wavelength/cpcheck"
)

// PathInfo is one signal path plus the data the assignment objective needs:
// its layout insertion loss L_s (excluding PDN losses) and its sender
// endpoint.
type PathInfo struct {
	Path ring.Path
	// LossDB is L_s: the path's insertion loss from the physical layout
	// excluding PDN losses (paper Eq. 5).
	LossDB float64
}

// SenderNode returns the node originating the path.
func (pi PathInfo) SenderNode() netlist.NodeID { return pi.Path.Msg.Src }

// SenderRing returns the ring carrying the path; (SenderNode, SenderRing)
// identifies the physical sender.
func (pi PathInfo) SenderRing() int { return pi.Path.RingID }

// Assignment maps each path (by index into the PathInfo slice) to a
// wavelength index in 0..NumLambda-1.
type Assignment struct {
	Lambda    []int
	NumLambda int
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{Lambda: append([]int(nil), a.Lambda...), NumLambda: a.NumLambda}
}

// Normalize renumbers wavelengths to a dense 0..k-1 range ordered by first
// use and updates NumLambda.
func (a *Assignment) Normalize() {
	remap := make(map[int]int)
	next := 0
	for i, l := range a.Lambda {
		m, ok := remap[l]
		if !ok {
			m = next
			remap[l] = m
			next++
		}
		a.Lambda[i] = m
	}
	a.NumLambda = next
}

// Verify checks that the assignment is collision-free: every path has a
// wavelength in range and no two conflicting paths (overlapping arcs on the
// same ring) share one.
func Verify(infos []PathInfo, a *Assignment) error {
	return verify(conflictAdj(infos), a)
}

// verify is Verify over the conflict adjacency of the paths.
func verify(adj [][]int, a *Assignment) error {
	if len(a.Lambda) != len(adj) {
		return fmt.Errorf("wavelength: assignment covers %d paths, want %d", len(a.Lambda), len(adj))
	}
	for i, l := range a.Lambda {
		if l < 0 || l >= a.NumLambda {
			return fmt.Errorf("wavelength: path %d assigned out-of-range wavelength %d", i, l)
		}
	}
	for i, nb := range adj {
		for _, j := range nb {
			if j > i && a.Lambda[i] == a.Lambda[j] {
				return fmt.Errorf("wavelength: conflicting paths %d and %d share wavelength %d", i, j, a.Lambda[i])
			}
		}
	}
	return nil
}

// NodeSplitters derives which sender nodes need a PDN splitter under the
// assignment: a node whose senders on two different rings share at least
// one wavelength (paper Sec. III-B). Nodes with a single sender never need
// one. Wavelengths must be non-negative.
func NodeSplitters(infos []PathInfo, a *Assignment) map[netlist.NodeID]bool {
	width := a.NumLambda
	for _, l := range a.Lambda {
		width = max(width, l+1)
	}
	e := newEvaluator(infos)
	e.markSplitters(a.Lambda, width)
	out := make(map[netlist.NodeID]bool, e.nSplit)
	for _, n := range e.splitterNodes(nil) {
		out[n] = true
	}
	return out
}

// Objective is the paper's Eq. 8 value and its components for a given
// assignment.
type Objective struct {
	NumLambda    int     // i_wl
	WorstIL      float64 // il^Smax: worst path loss incl. node splitter
	SumPerLambda float64 // sum over used λ of il_λ^max
	Splitters    int     // number of node splitters implied
	Value        float64 // α·i_wl + β·il^Smax + γ·Σ il_λ^max
}

// Weights are the objective coefficients (α, β, γ) plus the splitter stage
// loss L_sp used inside il_s.
type Weights struct {
	Alpha, Beta, Gamma float64
	SplitterStageDB    float64
}

// DefaultWeights returns the paper's setting α = β = γ = 1 with the
// calibrated L_sp.
func DefaultWeights() Weights {
	return Weights{Alpha: 1, Beta: 1, Gamma: 1, SplitterStageDB: 3.3}
}

// PerLambdaLoss returns the worst-case insertion loss carried by each
// wavelength under the assignment, including the node-splitter stage of
// senders the assignment forces a splitter on (the il_λ^max terms of Eq. 8,
// without PDN feed losses).
func PerLambdaLoss(infos []PathInfo, a *Assignment, w Weights) []float64 {
	e := newEvaluator(infos)
	e.score(a, w)
	return slices.Clone(e.perLambda)
}

// Evaluate computes the objective of an assignment.
func Evaluate(infos []PathInfo, a *Assignment, w Weights) Objective {
	return newEvaluator(infos).score(a, w)
}

// conflictAdj builds the conflict adjacency of the paths.
func conflictAdj(infos []PathInfo) [][]int {
	paths := make([]ring.Path, len(infos))
	for i, pi := range infos {
		paths[i] = pi.Path
	}
	return ring.BuildConflictGraph(paths).Adj
}

// DSATUR colours the conflict graph with the classic saturation-degree
// heuristic, deterministically. The result is a valid assignment with a
// small (not necessarily minimal) number of wavelengths.
func DSATUR(infos []PathInfo) *Assignment {
	return dsatur(conflictAdj(infos))
}

// dsatur is DSATUR over a conflict adjacency. A vertex's saturation set,
// the colours of its coloured neighbours, is a bitset over the palette:
// no colour exceeds the maximum degree, so each set spans at most
// maxDegree+1 bits.
func dsatur(adj [][]int) *Assignment {
	n := len(adj)
	lambda := make([]int, n)
	for i := range lambda {
		lambda[i] = -1
	}
	maxDeg := 0
	for _, nb := range adj {
		maxDeg = max(maxDeg, len(nb))
	}
	words := maxDeg/64 + 1
	seen := make([]uint64, n*words) // vertex i's set at [i*words, (i+1)*words)
	satur := make([]int, n)         // set sizes
	maxColor := -1
	for colored := 0; colored < n; colored++ {
		// Pick uncoloured vertex with max saturation, tie: max degree,
		// tie: lowest index.
		best := -1
		for i := 0; i < n; i++ {
			if lambda[i] >= 0 {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			si, sb := satur[i], satur[best]
			if si > sb || (si == sb && len(adj[i]) > len(adj[best])) {
				best = i
			}
		}
		// Smallest feasible colour.
		c := 0
		for k, set := range seen[best*words : (best+1)*words] {
			if set != ^uint64(0) {
				c = 64*k + bits.TrailingZeros64(^set)
				break
			}
		}
		lambda[best] = c
		maxColor = max(maxColor, c)
		bit := uint64(1) << (c % 64)
		for _, j := range adj[best] {
			if set := &seen[j*words+c/64]; *set&bit == 0 {
				*set |= bit
				satur[j]++
			}
		}
	}
	a := &Assignment{Lambda: lambda, NumLambda: maxColor + 1}
	a.Normalize()
	return a
}

// Improve hill-climbs the assignment under the Eq. 8 objective using
// single-path recolour moves, including moves to one brand-new wavelength
// (which is how the optimiser trades wavelength count against splitter
// usage, the behaviour the paper reports at high communication density).
// It returns the improved assignment; the input is not modified.
func Improve(infos []PathInfo, start *Assignment, w Weights) *Assignment {
	a, _ := improve(infos, conflictAdj(infos), start, w)
	return a
}

// climbWork counts the hill climb's work units: recolour trials scored,
// and how many of them the incremental state could not price (a sender's
// splitter status flips) and handed to the full evaluator.
type climbWork struct {
	trials, rescored int64
}

// improve is Improve over a prebuilt conflict adjacency of infos. Trials
// are priced by a climbState; the assignment it returns is the one a climb
// that rescored every trial with the evaluator would return, bit for bit.
func improve(infos []PathInfo, adj [][]int, start *Assignment, w Weights) (*Assignment, climbWork) {
	var work climbWork
	cur := start.Clone()
	cur.Normalize()
	ev := newEvaluator(infos)
	curObj := ev.score(cur, w)
	st := newClimbState(ev, w)

	// forbid[c] == stamp marks the colours of path i's neighbours, so a
	// recolour's feasibility is one lookup. The marks are redone whenever
	// an accepted move renumbers the palette.
	var forbid []int
	stamp := 0
	markForbidden := func(i int) {
		if len(forbid) < cur.NumLambda+1 {
			forbid = make([]int, 2*cur.NumLambda+1)
		}
		stamp++
		for _, j := range adj[i] {
			forbid[cur.Lambda[j]] = stamp
		}
	}

	const maxPasses = 60
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		st.rebuild(cur)
		for i := range infos {
			old := cur.Lambda[i]
			markForbidden(i)
			// Try every existing colour plus one fresh colour.
			for c := 0; c <= cur.NumLambda; c++ {
				if c == old || forbid[c] == stamp {
					continue
				}
				work.trials++
				num := cur.NumLambda
				cand, ok := st.trial(cur, i, c)
				if !ok {
					work.rescored++
					cur.Lambda[i] = c
					if c == num {
						cur.NumLambda = c + 1
					}
					cand = ev.score(cur, w)
					cur.Lambda[i] = old
					cur.NumLambda = num
				}
				if cand.Value < curObj.Value-1e-9 {
					// curObj keeps the value scored before renumbering:
					// later trials compare against exactly that value.
					curObj = cand
					improved = true
					cur.Lambda[i] = c
					if c == num {
						cur.NumLambda = c + 1
					}
					cur.Normalize()
					old = cur.Lambda[i]
					st.rebuild(cur)
					markForbidden(i)
				}
			}
		}
		// Compound splitter-elimination moves: recolouring a single path
		// rarely pays off on its own (the splitter only disappears once
		// every shared wavelength is resolved), so attempt the whole
		// elimination for each splitter node and keep it if the objective
		// improves.
		if cand, obj, ok := eliminateSplitters(infos, ev, cur, adj, w); ok && obj.Value < curObj.Value-1e-9 {
			cur = cand
			curObj = obj
			improved = true
		}
		if !improved {
			break
		}
	}
	cur.Normalize()
	return cur, work
}

// eliminateSplitters tries, for each node currently needing a PDN splitter,
// to recolour the offending paths so its senders' wavelength sets become
// disjoint. It returns the best resulting assignment and its objective, or
// ok=false if no elimination attempt changed anything. ev must be built
// over infos.
func eliminateSplitters(infos []PathInfo, ev *evaluator, start *Assignment, adj [][]int, w Weights) (*Assignment, Objective, bool) {
	curVal := ev.score(start, w).Value
	nodes := ev.splitterNodes(nil)
	if len(nodes) == 0 {
		return nil, Objective{}, false
	}

	cur := start.Clone()
	changed := false
	for _, n := range nodes {
		cand := cur.Clone()
		if resolveNode(infos, cand, adj, n) {
			// Keep the elimination only if it does not worsen Eq. 8.
			if v := ev.score(cand, w).Value; v <= curVal+1e-9 {
				cur = cand
				curVal = v
				changed = true
			}
		}
	}
	if !changed {
		return nil, Objective{}, false
	}
	cur.Normalize()
	return cur, ev.score(cur, w), true
}

// resolveNode recolours paths sent by node n until its senders' wavelength
// sets are disjoint, preferring existing wavelengths and opening fresh ones
// as a last resort. Reports whether full disjointness was achieved.
func resolveNode(infos []PathInfo, a *Assignment, adj [][]int, n netlist.NodeID) bool {
	// Paths from n grouped by sender ring.
	byRing := make(map[int][]int)
	for i, pi := range infos {
		if pi.SenderNode() == n {
			byRing[pi.SenderRing()] = append(byRing[pi.SenderRing()], i)
		}
	}
	if len(byRing) < 2 {
		return true
	}
	ringIDs := make([]int, 0, len(byRing))
	for r := range byRing {
		ringIDs = append(ringIDs, r)
	}
	sort.Ints(ringIDs)
	// The first ring keeps its colours; later rings move off any colour
	// already claimed by earlier rings.
	claimed := make(map[int]bool)
	for _, i := range byRing[ringIDs[0]] {
		claimed[a.Lambda[i]] = true
	}
	for _, r := range ringIDs[1:] {
		for _, i := range byRing[r] {
			if !claimed[a.Lambda[i]] {
				continue
			}
			moved := false
			for c := 0; c <= a.NumLambda && !moved; c++ {
				if claimed[c] {
					continue
				}
				ok := true
				for _, j := range adj[i] {
					if a.Lambda[j] == c {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				a.Lambda[i] = c
				if c == a.NumLambda {
					a.NumLambda = c + 1
				}
				moved = true
			}
			if !moved {
				return false
			}
		}
		for _, i := range byRing[r] {
			claimed[a.Lambda[i]] = true
		}
	}
	return true
}

// maxBinaries skips the MILP when |S| x |Λ| exceeds it: the LP relaxations
// would be too slow to help within the budget — a single LP solve can
// overshoot the time limit.
const maxBinaries = 500

// Options controls Assign.
type Options struct {
	// Weights are the objective coefficients; zero value means
	// DefaultWeights.
	Weights Weights
	// UseMILP enables the exact branch-and-bound polish after the
	// heuristic.
	UseMILP bool
	// MILPTimeLimit bounds the exact solve. Zero means the pipeline-wide
	// default, milp.DefaultTimeLimit (10 s); the value is passed through
	// unchanged so the default lives in one place.
	MILPTimeLimit time.Duration
	// Parallelism is the worker count for the exact solve's LP
	// relaxations, forwarded to milp.Options.Parallelism: 0 means
	// GOMAXPROCS, 1 means sequential. The assignment returned is
	// bit-identical either way.
	Parallelism int
	// ExtraLambda lets the MILP use up to this many wavelengths beyond the
	// heuristic's count, enabling the λ-for-splitter trade. Zero means 1.
	ExtraLambda int
	// Obs, when non-nil, is the parent span under which the assignment
	// records its telemetry: heuristic and MILP child spans, the
	// heuristic-vs-MILP objective delta, and per-wavelength loss events.
	Obs *obs.Span
	// Oracle names an independent cross-check solver to run when the exact
	// solve fails to prove optimality (stalled or skipped by the size gate).
	// OracleCP ("cp") runs the constraint-propagation search in cpcheck with
	// the same time budget, seeded with the incumbent; an improvement
	// replaces the assignment and a stronger bound tightens the reported
	// gap. Empty disables; any other name, or an oracle without UseMILP,
	// is an error.
	Oracle string
}

// Stats reports how an assignment was obtained.
type Stats struct {
	Heuristic Objective
	Final     Objective
	MILPRan   bool
	MILPExact bool // true if the MILP proved optimality
	// MILPSkipped reports that UseMILP was set but the size gate skipped
	// the exact solve: |S| × MILPPalette binaries would exceed its limit.
	MILPSkipped bool
	// MILPPalette is |Λ|, the wavelength palette the exact stage searched,
	// or would have searched had the size gate not skipped it (set
	// whenever UseMILP).
	MILPPalette int
	// MILPBound is the proven lower bound on the Eq. 8 objective over the
	// MILP's palette (valid when MILPRan).
	MILPBound float64
	// MILPNodes counts the branch-and-bound nodes explored.
	MILPNodes int
	// MILPGap is the relative optimality gap of the final assignment:
	// 0 for a proven optimum, +Inf when no bound was established
	// (valid when MILPRan).
	MILPGap float64
	// MILPTimeLimitHit reports that the MILP's wall-clock budget expired
	// before the search finished (valid when MILPRan).
	MILPTimeLimitHit bool
	// MILPNodeFingerprint is the solver's explored-node fingerprint
	// (milp.Result.NodeFingerprint), identical across Parallelism
	// settings; 0 when the MILP did not run or presolve decided it.
	MILPNodeFingerprint uint64
	// Cancelled reports that the assignment was interrupted by context
	// cancellation: the exact solve stopped early and the returned
	// assignment is the best of the heuristic and the solver's incumbent
	// at that moment, not the converged result.
	Cancelled bool
	// OracleRan reports that the Options.Oracle fallback solver ran.
	OracleRan bool
	// OracleExact reports that the oracle search ran to completion, proving
	// its result optimal over the palette it was given.
	OracleExact bool
	// OracleNodes counts the oracle's search nodes.
	OracleNodes int64
	// OracleBound is the oracle's proven lower bound on the Eq. 8 objective
	// (valid when OracleRan).
	OracleBound float64
}

// Assign computes a wavelength assignment with no cancellation hook. See
// AssignContext.
func Assign(infos []PathInfo, opt Options) (*Assignment, *Stats, error) {
	return AssignContext(context.Background(), infos, opt)
}

// AssignContext computes a wavelength assignment for the given paths:
// DSATUR, splitter-aware hill climbing, and (optionally) the paper's MILP
// seeded with the heuristic incumbent. The best solution found is
// returned. Cancelling ctx stops the exact solve gracefully: the best
// solution known at that point is returned with Stats.Cancelled set.
func AssignContext(ctx context.Context, infos []PathInfo, opt Options) (*Assignment, *Stats, error) {
	if len(infos) == 0 {
		return nil, nil, fmt.Errorf("wavelength: no paths to assign")
	}
	if err := CheckOracle(opt.Oracle, opt.UseMILP); err != nil {
		return nil, nil, err
	}
	sp := opt.Obs.StartSpan("wavelength.assign")
	defer sp.End()
	sp.SetInt("paths", int64(len(infos)))
	w := opt.Weights
	if w == (Weights{}) {
		w = DefaultWeights()
	}
	// One conflict graph serves the heuristic, every verification and the
	// CP oracle.
	adj := conflictAdj(infos)
	hsp := sp.StartSpan("wavelength.heuristic")
	best, work := improve(infos, adj, dsatur(adj), w)
	hsp.Count("wavelength.improve_trials", work.trials)
	hsp.Count("wavelength.improve_rescored", work.rescored)
	if err := verify(adj, best); err != nil {
		return nil, nil, fmt.Errorf("wavelength: heuristic produced invalid assignment: %w", err)
	}
	stats := &Stats{Heuristic: Evaluate(infos, best, w)}
	stats.Final = stats.Heuristic
	hsp.SetFloat("objective", stats.Heuristic.Value)
	hsp.SetInt("wavelengths", int64(best.NumLambda))
	hsp.SetInt("splitters", int64(stats.Heuristic.Splitters))
	hsp.End()

	if opt.UseMILP {
		extra := opt.ExtraLambda
		if extra == 0 {
			extra = 1
		}
		numLambda := best.NumLambda + extra
		stats.MILPPalette = numLambda
		if len(infos)*numLambda <= maxBinaries {
			milpA, info, err := SolveMILP(ctx, infos, numLambda, w, best, opt.MILPTimeLimit, opt.Parallelism, sp)
			if err != nil {
				return nil, nil, err
			}
			stats.MILPRan = true
			stats.MILPExact = info.Exact
			stats.MILPBound = info.Bound
			stats.MILPNodes = info.Nodes
			stats.MILPGap = info.Gap
			stats.MILPTimeLimitHit = info.TimeLimitHit
			stats.MILPNodeFingerprint = info.NodeFingerprint
			stats.Cancelled = info.Cancelled
			if milpA != nil {
				if err := verify(adj, milpA); err != nil {
					return nil, nil, fmt.Errorf("wavelength: MILP produced invalid assignment: %w", err)
				}
				if o := Evaluate(infos, milpA, w); o.Value < stats.Final.Value-1e-9 {
					best = milpA
					stats.Final = o
				}
			}
		} else {
			// The exact solve would not finish within budget at this size;
			// make the skip visible instead of silent.
			stats.MILPSkipped = true
			sp.SetBool("milp_skipped", true)
		}
		if opt.Oracle == OracleCP && !stats.MILPExact &&
			ctx.Err() == nil && numLambda <= cpcheck.MaxLambdaLimit {
			var err error
			best, err = runOracle(ctx, infos, adj, best, numLambda, w, opt, stats, sp)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	best.Normalize()
	sp.SetFloat("heuristic_objective", stats.Heuristic.Value)
	sp.SetFloat("final_objective", stats.Final.Value)
	sp.SetFloat("milp_delta", stats.Heuristic.Value-stats.Final.Value)
	sp.SetInt("wavelengths", int64(best.NumLambda))
	sp.SetInt("splitters", int64(stats.Final.Splitters))
	if sp.Enabled() {
		for l, loss := range PerLambdaLoss(infos, best, w) {
			sp.Event("lambda_loss", float64(l), loss)
		}
	}
	return best, stats, nil
}
