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
	if len(a.Lambda) != len(infos) {
		return fmt.Errorf("wavelength: assignment covers %d paths, want %d", len(a.Lambda), len(infos))
	}
	for i, l := range a.Lambda {
		if l < 0 || l >= a.NumLambda {
			return fmt.Errorf("wavelength: path %d assigned out-of-range wavelength %d", i, l)
		}
	}
	paths := make([]ring.Path, len(infos))
	for i, pi := range infos {
		paths[i] = pi.Path
	}
	g := ring.BuildConflictGraph(paths)
	for i, adj := range g.Adj {
		for _, j := range adj {
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
	n := len(infos)
	adj := conflictAdj(infos)
	lambda := make([]int, n)
	for i := range lambda {
		lambda[i] = -1
	}
	satur := make([]map[int]bool, n)
	for i := range satur {
		satur[i] = make(map[int]bool)
	}
	colored := 0
	maxColor := -1
	for colored < n {
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
			si, sb := len(satur[i]), len(satur[best])
			if si > sb || (si == sb && len(adj[i]) > len(adj[best])) {
				best = i
			}
		}
		// Smallest feasible colour.
		c := 0
		for satur[best][c] {
			c++
		}
		lambda[best] = c
		if c > maxColor {
			maxColor = c
		}
		for _, j := range adj[best] {
			satur[j][c] = true
		}
		colored++
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
	cur := start.Clone()
	cur.Normalize()
	adj := conflictAdj(infos)
	ev := newEvaluator(infos)
	curObj := ev.score(cur, w)

	feasible := func(i, c int) bool {
		for _, j := range adj[i] {
			if cur.Lambda[j] == c {
				return false
			}
		}
		return true
	}

	const maxPasses = 60
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := range infos {
			old := cur.Lambda[i]
			// Try every existing colour plus one fresh colour.
			for c := 0; c <= cur.NumLambda; c++ {
				if c == old || !feasible(i, c) {
					continue
				}
				num := cur.NumLambda
				cur.Lambda[i] = c
				if c == num {
					cur.NumLambda = c + 1
				}
				cand := ev.score(cur, w)
				if cand.Value < curObj.Value-1e-9 {
					curObj = cand
					improved = true
					cur.Normalize()
					old = cur.Lambda[i]
				} else {
					// cur is normalised before every trial, so undoing the
					// recolour restores the normalised assignment exactly.
					cur.Lambda[i] = old
					cur.NumLambda = num
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
	return cur
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
	// MaxBinaries skips the MILP when |S| x |Λ| exceeds it (the LP
	// relaxations would be too slow to help within the budget — a single
	// LP solve can overshoot the time limit). Zero means 500.
	MaxBinaries int
	// ExtraLambda lets the MILP use up to this many wavelengths beyond the
	// heuristic's count, enabling the λ-for-splitter trade. Zero means 1.
	ExtraLambda int
	// CutRounds is the exact solver's cutting-plane budget, forwarded to
	// milp.Options.CutRounds (monolithic, decomposed and assembly solves
	// alike): 0 means the solver default, negative disables cut separation.
	// Cuts only ever change the search path, never the optimum — the
	// cuts-on-vs-off CI step relies on exactly that.
	CutRounds int
	// Decompose splits the exact solve into the connected components of the
	// ring-coupling graph (rings are coupled when one node sends on both),
	// solves each piece's MILP separately over a palette sweep, and
	// coordinates the shared palette with a small assembly MILP — see
	// decompose.go. Components too large for the monolithic size gate are
	// further cut along the construction hierarchy (RingLevels) into
	// boundary and per-cluster leaf pieces on disjoint palette banks, so
	// the decomposed solve reaches sizes the MaxBinaries gate would reject
	// monolithically. Instances that reduce to one gate-sized piece run
	// the monolithic solve unchanged, so results are identical there.
	// Effective only with UseMILP.
	Decompose bool
	// RingLevels maps ring ID to its construction hierarchy level (0 =
	// intra-cluster, >= 1 = inter-cluster) and enables the boundary/leaf
	// tier cut for oversized components under Decompose. Nil disables the
	// cut; such components then contribute heuristic candidates only.
	RingLevels map[int]int
	// Obs, when non-nil, is the parent span under which the assignment
	// records its telemetry: heuristic and MILP child spans, the
	// heuristic-vs-MILP objective delta, and per-wavelength loss events.
	Obs *obs.Span
	// Registry receives aggregate telemetry (LP/MILP kernel histograms and
	// counters), forwarded to milp.Options.Registry. Nil means the
	// process-wide obs.Default() registry.
	Registry *obs.Registry
	// Oracle names an independent cross-check solver to run when the exact
	// solve fails to prove optimality (stalled, skipped by the size gate,
	// or decomposed without a global certificate). OracleCP ("cp") runs the
	// constraint-propagation search in cpcheck with the same time budget,
	// seeded with the incumbent; an improvement replaces the assignment and
	// a stronger bound tightens the reported gap. Empty disables.
	Oracle string
}

// Stats reports how an assignment was obtained.
type Stats struct {
	Heuristic Objective
	Final     Objective
	MILPRan   bool
	MILPExact bool // true if the MILP proved optimality
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
	// DecompComponents is the number of pieces the decomposed solve
	// partitioned the instance into — ring-coupling components, after the
	// boundary/leaf tier cut of components too large for the monolithic
	// gate. 0 when decomposition was not requested, 1 when the instance
	// was one gate-sized piece and ran the monolithic solve verbatim.
	DecompComponents int
	// DecompCandidates is the total number of per-piece palette candidates
	// offered to the coordination model (multi-piece decomposed solves
	// only).
	DecompCandidates int
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
	// DecompExact reports that every per-piece MILP in a multi-piece
	// decomposed solve proved optimality and the coordination model was
	// solved to optimality. Unlike MILPExact it does not certify a global
	// optimum — the candidate palette sweep is heuristically complete and
	// the tier cut forbids cross-bank wavelength sharing (see
	// decompose.go) — so MILPExact stays false on multi-piece decomposed
	// solves.
	DecompExact bool
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
	sp := opt.Obs.StartSpan("wavelength.assign")
	defer sp.End()
	sp.SetInt("paths", int64(len(infos)))
	w := opt.Weights
	if w == (Weights{}) {
		w = DefaultWeights()
	}
	hsp := sp.StartSpan("wavelength.heuristic")
	best := Improve(infos, DSATUR(infos), w)
	if err := Verify(infos, best); err != nil {
		return nil, nil, fmt.Errorf("wavelength: heuristic produced invalid assignment: %w", err)
	}
	stats := &Stats{Heuristic: Evaluate(infos, best, w)}
	stats.Final = stats.Heuristic
	hsp.SetFloat("objective", stats.Heuristic.Value)
	hsp.SetInt("wavelengths", int64(best.NumLambda))
	hsp.SetInt("splitters", int64(stats.Heuristic.Splitters))
	hsp.End()

	if opt.UseMILP {
		maxBin := opt.MaxBinaries
		if maxBin == 0 {
			maxBin = 500
		}
		extra := opt.ExtraLambda
		if extra == 0 {
			extra = 1
		}
		ranDecomposed := false
		if opt.Decompose {
			comps := splitterComponents(infos)
			pieces := buildPieces(infos, comps, best, extra, maxBin, opt.RingLevels)
			stats.DecompComponents = len(pieces)
			sp.SetInt("decomp_components", int64(len(pieces)))
			reg := obs.OrDefault(opt.Registry)
			reg.Add("wavelength.decomp.solves", 1)
			reg.Observe("wavelength.decomp.components", int64(len(pieces)))
			// One gate-sized piece carries the whole instance: fall through
			// to the monolithic solve, which is then the decomposition
			// verbatim.
			if len(pieces) > 1 {
				ranDecomposed = true
				merged, nCand, exact, cancelled, err := assignDecomposed(ctx, infos, pieces, best, w,
					opt.MILPTimeLimit, maxBin, extra, opt.Parallelism, opt.CutRounds, opt.Registry, sp)
				if err != nil {
					return nil, nil, err
				}
				stats.DecompCandidates = nCand
				stats.DecompExact = exact
				stats.Cancelled = cancelled
				sp.SetInt("decomp_candidates", int64(nCand))
				sp.SetBool("decomp_exact", exact)
				reg.Add("wavelength.decomp.candidates", int64(nCand))
				if exact {
					reg.Add("wavelength.decomp.exact", 1)
				}
				if merged != nil {
					if o := Evaluate(infos, merged, w); o.Value < stats.Final.Value-1e-9 {
						best = merged
						stats.Final = o
					}
				}
			}
		}
		numLambda := best.NumLambda + extra
		if ranDecomposed {
			// The exact work happened per component above.
		} else if len(infos)*numLambda <= maxBin {
			milpA, info, err := SolveMILPRegistry(ctx, infos, numLambda, w, best, opt.MILPTimeLimit, opt.Parallelism, opt.CutRounds, opt.Registry, sp)
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
				if err := Verify(infos, milpA); err != nil {
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
			sp.SetBool("milp_skipped", true)
		}
		if opt.Oracle == OracleCP && !stats.MILPExact && !stats.DecompExact &&
			ctx.Err() == nil && numLambda <= cpcheck.MaxLambdaLimit {
			var err error
			best, err = runOracle(ctx, infos, best, numLambda, w, opt, stats, sp)
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
