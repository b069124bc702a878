package wavelength

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sring/internal/lp"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/ring"
)

// Cluster-decomposed wavelength assignment. The monolithic MILP couples
// every path to every other through three mechanisms: segment conflicts
// (Eq. 2, local to one ring), splitter binaries (Eq. 4, local to the rings
// one node sends on), and the shared wavelength palette (the α·i_wl and
// γ·Σ il_λ^max terms of Eq. 8, global). The first two induce a coupling
// graph over rings — two rings are coupled when some node sends on both —
// whose connected components can be solved independently; only the palette
// coupling crosses components, and it has enough structure to coordinate
// exactly without re-solving anything:
//
// Given one candidate assignment per piece, the optimal way to overlay
// their private palettes onto shared slots is to sort every piece's
// per-wavelength worst losses descending and align them slot by slot
// (a rearrangement argument: exchanging two slots of one piece against a
// descending partner never decreases Σ_j max_p il_{p,j}). The merged
// objective is then a closed form of the chosen candidates, so the global
// problem reduces to choosing one candidate per piece — a small assembly
// MILP over candidate-selection binaries, solved by the same internal/milp
// engine.
//
// On SRing's hierarchical constructions the coupling graph is usually ONE
// component: every cluster hub sends on its intra ring and on an
// inter-cluster ring, chaining all rings together, so pure component
// decomposition degenerates exactly where the monolithic size gate starts
// rejecting the instance. Those components are cut along the construction
// hierarchy instead: inter-ring paths (ring Level >= 1) form boundary
// pieces and each cluster's intra-ring paths a leaf piece, and the two
// sides are assigned DISJOINT palette banks. A node whose two senders face
// different banks then never shares a wavelength between them, so the cut
// introduces no splitter and every piece's candidate losses stay exact;
// the price is that the optimum may no longer share wavelengths across the
// boundary, which is why the cut is applied only to components too large
// for the monolithic solve (small instances delegate and stay
// oracle-exact — the root-package cross-check pins this).
//
// Candidates per piece come from a palette sweep: the exact model with
// α = 0 (the wavelength count is priced by the coordination model, not the
// subproblem) for every palette size between the piece's clique lower
// bound and its heuristic count plus ExtraLambda, plus a β = 0 variant
// (when another piece dominates the worst-case loss, this piece should
// spend everything on Σ il_λ^max alone), plus the splitter-aware heuristic
// itself. Each exact solve is warm-started from the piece's restriction of
// the global heuristic, exactly as the monolithic solve is seeded.

// ErrInfeasible is wrapped by SolveMILP when the model admits no assignment
// within the given palette, so palette sweeps can distinguish "needs more
// wavelengths" from a genuine failure.
var ErrInfeasible = errors.New("model infeasible")

// decompPiece is one independently solvable sub-instance: path indices
// (ascending, into the full info slice) plus the palette bank it draws
// slots from.
type decompPiece struct {
	paths []int
	// boundary pieces (inter-ring paths of a tier-cut component) use the
	// boundary palette bank, disjoint from the leaf bank, so cut nodes
	// never share a wavelength between their two senders.
	boundary bool
}

// decompCand is one palette candidate for a piece: a valid assignment of
// the piece's paths plus the merge-relevant summary.
type decompCand struct {
	a *Assignment
	// losses are the per-wavelength worst losses (splitter-aware), sorted
	// descending; len(losses) == a.NumLambda.
	losses []float64
	// worst is the piece's il^Smax under this candidate.
	worst float64
	// exact reports the candidate came from a MILP solve that proved
	// optimality for its palette.
	exact bool
}

// splitterComponents partitions path indices into the connected components
// of the ring-coupling graph: rings are coupled when one node sends on
// both. Paths on rings of the same component share segment conflicts and
// splitter decisions only with each other. Components are ordered by their
// smallest path index; indices within a component are ascending.
func splitterComponents(infos []PathInfo) [][]int {
	ringIdx := make(map[int]int)
	var ringOf []int // path -> dense ring index
	for _, pi := range infos {
		r := pi.SenderRing()
		if _, ok := ringIdx[r]; !ok {
			ringIdx[r] = len(ringIdx)
		}
		ringOf = append(ringOf, ringIdx[r])
	}
	parent := make([]int, len(ringIdx))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	nodeRing := make(map[netlist.NodeID]int)
	for i, pi := range infos {
		n := pi.SenderNode()
		if prev, ok := nodeRing[n]; ok {
			union(prev, ringOf[i])
		} else {
			nodeRing[n] = ringOf[i]
		}
	}
	byRoot := make(map[int][]int)
	var order []int
	for i := range infos {
		root := find(ringOf[i])
		if _, ok := byRoot[root]; !ok {
			order = append(order, root)
		}
		byRoot[root] = append(byRoot[root], i)
	}
	out := make([][]int, 0, len(order))
	for _, root := range order {
		out = append(out, byRoot[root])
	}
	return out
}

// subInfos gathers the PathInfos at the given global indices.
func subInfos(infos []PathInfo, idx []int) []PathInfo {
	sub := make([]PathInfo, len(idx))
	for i, g := range idx {
		sub[i] = infos[g]
	}
	return sub
}

// buildPieces turns the coupling components into solve pieces. Components
// whose exact model fits the size gate stay whole. Oversized components
// spanning both construction tiers (ringLevels maps ring ID to hierarchy
// level; level >= 1 is an inter-cluster ring) are cut at the boundary:
// their inter-ring paths become boundary pieces and the remaining
// intra-ring paths re-decompose by sender coupling — on SRing
// constructions, one piece per cluster. Oversized components without tier
// information stay whole (their candidates are then heuristic-only).
//
// The gate estimate is the component's distinct wavelength count under the
// global heuristic, so a single-component instance splits exactly when the
// monolithic gate would have skipped it.
func buildPieces(infos []PathInfo, comps [][]int, heur *Assignment, extra, maxBin int, ringLevels map[int]int) []decompPiece {
	var pieces []decompPiece
	for _, comp := range comps {
		seen := make(map[int]bool)
		for _, g := range comp {
			seen[heur.Lambda[g]] = true
		}
		k := len(seen) + extra
		split := len(comp)*k > maxBin && len(ringLevels) > 0
		var bnd, leaf []int
		if split {
			for _, g := range comp {
				if ringLevels[infos[g].SenderRing()] > 0 {
					bnd = append(bnd, g)
				} else {
					leaf = append(leaf, g)
				}
			}
			split = len(bnd) > 0 && len(leaf) > 0
		}
		if !split {
			pieces = append(pieces, decompPiece{paths: comp})
			continue
		}
		for _, sc := range splitterComponents(subInfos(infos, bnd)) {
			p := make([]int, len(sc))
			for i, l := range sc {
				p[i] = bnd[l]
			}
			pieces = append(pieces, decompPiece{paths: p, boundary: true})
		}
		for _, sc := range splitterComponents(subInfos(infos, leaf)) {
			p := make([]int, len(sc))
			for i, l := range sc {
				p[i] = leaf[l]
			}
			pieces = append(pieces, decompPiece{paths: p})
		}
	}
	return pieces
}

// candLosses summarises an assignment for the coordination model: its
// per-wavelength worst losses sorted descending and the piece worst.
func candLosses(sub []PathInfo, a *Assignment, w Weights) ([]float64, float64) {
	per := PerLambdaLoss(sub, a, w)
	sorted := append([]float64(nil), per...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	worst := 0.0
	if len(sorted) > 0 {
		worst = sorted[0]
	}
	return sorted, worst
}

// componentCandidates builds the candidate set for one piece. It returns
// the candidates, whether every exact solve attempted proved optimality
// (false too when the size gate skipped part of the sweep), and whether a
// solve was cut short by ctx cancellation.
func componentCandidates(ctx context.Context, sub []PathInfo, start *Assignment, w Weights,
	timeLimit time.Duration, maxBin, extra, parallelism, cutRounds int, sp *obs.Span) (cands []decompCand, exactAll bool, cancelled bool, err error) {

	add := func(a *Assignment, exact bool) {
		a = a.Clone()
		a.Normalize()
		for _, c := range cands {
			if c.a.NumLambda == a.NumLambda && equalLambda(c.a.Lambda, a.Lambda) {
				return
			}
		}
		losses, worst := candLosses(sub, a, w)
		cands = append(cands, decompCand{a: a, losses: losses, worst: worst, exact: exact})
	}

	if len(sub) == 1 {
		add(&Assignment{Lambda: []int{0}, NumLambda: 1}, true)
		return cands, true, false, nil
	}

	local := Improve(sub, start, w)
	add(local, false)

	paths := make([]ring.Path, len(sub))
	for i, pi := range sub {
		paths[i] = pi.Path
	}
	lb := ring.BuildConflictGraph(paths).CliqueLowerBound()
	if lb < 1 {
		lb = 1
	}

	exactAll = true
	variants := []Weights{
		{Alpha: 0, Beta: w.Beta, Gamma: w.Gamma, SplitterStageDB: w.SplitterStageDB},
		{Alpha: 0, Beta: 0, Gamma: w.Gamma, SplitterStageDB: w.SplitterStageDB},
	}
	for k := lb; k <= local.NumLambda+extra; k++ {
		if len(sub)*k > maxBin {
			exactAll = false
			continue
		}
		for _, wv := range variants {
			var inc *Assignment
			if local.NumLambda <= k {
				inc = local
			}
			a, info, serr := SolveMILP(ctx, sub, k, wv, inc, timeLimit, parallelism, cutRounds, sp)
			if serr != nil {
				if errors.Is(serr, ErrInfeasible) {
					break // palette too small; larger k may work
				}
				return nil, false, false, serr
			}
			if info.Cancelled {
				return cands, false, true, nil
			}
			if !info.Exact {
				exactAll = false
			}
			if a != nil {
				if verr := Verify(sub, a); verr != nil {
					return nil, false, false, fmt.Errorf("wavelength: piece MILP produced invalid assignment: %w", verr)
				}
				add(a, info.Exact)
			}
		}
	}
	return cands, exactAll, false, nil
}

func equalLambda(a, b []int) bool {
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

// bankOffsets returns the slot offset of each piece and the total slot
// count: boundary pieces draw from slots [0, kB), leaf pieces from
// [kB, kB+kL), where each bank is sized by the largest candidate it must
// accommodate. Unused slots vanish in the final Normalize.
func bankOffsets(pieces []decompPiece, cands [][]decompCand) (offsets []int, kB, total int) {
	kL := 0
	for p := range pieces {
		maxK := 0
		for _, c := range cands[p] {
			if c.a.NumLambda > maxK {
				maxK = c.a.NumLambda
			}
		}
		if pieces[p].boundary {
			if maxK > kB {
				kB = maxK
			}
		} else if maxK > kL {
			kL = maxK
		}
	}
	offsets = make([]int, len(pieces))
	for p := range pieces {
		if !pieces[p].boundary {
			offsets[p] = kB
		}
	}
	return offsets, kB, kB + kL
}

// coordinate selects one candidate per piece by solving the assembly MILP:
// binaries z_{p,t} pick candidates, slot maxima M_j capture the
// descending-overlay merge, ordered open-wavelength binaries y_j price the
// shared palette and W the global worst loss. Boundary and leaf pieces
// draw from disjoint slot banks. It returns the selected candidate
// indices and whether optimality was proven.
func coordinate(ctx context.Context, pieces []decompPiece, cands [][]decompCand, w Weights,
	timeLimit time.Duration, parallelism, cutRounds int, sp *obs.Span) ([]int, bool, bool, error) {

	P := len(pieces)
	zOff := make([]int, P)
	totalT := 0
	for p := range pieces {
		zOff[p] = totalT
		totalT += len(cands[p])
	}
	slotOff, kB, slots := bankOffsets(pieces, cands)
	zVar := func(p, t int) int { return zOff[p] + t }
	yVar := func(j int) int { return totalT + j }
	mVar := func(j int) int { return totalT + slots + j }
	wVar := totalT + 2*slots
	numVars := wVar + 1

	prob := &milp.Problem{
		LP:      lp.Problem{NumVars: numVars, Objective: make([]float64, numVars)},
		Integer: make([]bool, numVars),
	}
	for p := range pieces {
		for t := range cands[p] {
			prob.Integer[zVar(p, t)] = true
		}
	}
	for j := 0; j < slots; j++ {
		prob.Integer[yVar(j)] = true
		prob.LP.Objective[yVar(j)] = w.Alpha
		prob.LP.Objective[mVar(j)] = w.Gamma
	}
	prob.LP.Objective[wVar] = w.Beta

	for p := range pieces {
		terms := make(map[int]float64, len(cands[p]))
		for t := range cands[p] {
			terms[zVar(p, t)] = 1
		}
		prob.LP.AddConstraint(lp.EQ, 1, terms)
	}
	// Slot maxima and palette opening. Exactly one z per piece is 1, so
	// both row families are exact with no big-M.
	for p := range pieces {
		maxK := 0
		for _, c := range cands[p] {
			if c.a.NumLambda > maxK {
				maxK = c.a.NumLambda
			}
		}
		for j := 0; j < maxK; j++ {
			slot := slotOff[p] + j
			mTerms := map[int]float64{mVar(slot): 1}
			yTerms := map[int]float64{yVar(slot): 1}
			needM := false
			for t, c := range cands[p] {
				if j < len(c.losses) {
					if c.losses[j] > 0 {
						mTerms[zVar(p, t)] = -c.losses[j]
						needM = true
					}
					yTerms[zVar(p, t)] = -1
				}
			}
			if needM {
				prob.LP.AddConstraint(lp.GE, 0, mTerms)
			}
			prob.LP.AddConstraint(lp.GE, 0, yTerms)
		}
	}
	for j := 0; j < slots; j++ {
		prob.LP.AddConstraint(lp.LE, 1, map[int]float64{yVar(j): 1})
	}
	// Symmetry ordering within each bank.
	for j := 0; j+1 < kB; j++ {
		prob.LP.AddConstraint(lp.LE, 0, map[int]float64{yVar(j + 1): 1, yVar(j): -1})
	}
	for j := kB; j+1 < slots; j++ {
		prob.LP.AddConstraint(lp.LE, 0, map[int]float64{yVar(j + 1): 1, yVar(j): -1})
	}
	for p := range pieces {
		terms := map[int]float64{wVar: 1}
		for t, c := range cands[p] {
			if c.worst > 0 {
				terms[zVar(p, t)] = -c.worst
			}
		}
		prob.LP.AddConstraint(lp.GE, 0, terms)
	}

	// Incumbent: each piece's standalone-best candidate, overlaid.
	incSel := make([]int, P)
	x := make([]float64, numVars)
	incM := make([]float64, slots)
	incOpen := make([]bool, slots)
	var incW float64
	for p, pc := range cands {
		best, bestVal := 0, math.Inf(1)
		for t, c := range pc {
			v := w.Alpha*float64(c.a.NumLambda) + w.Beta*c.worst
			for _, l := range c.losses {
				v += w.Gamma * l
			}
			if v < bestVal {
				best, bestVal = t, v
			}
		}
		incSel[p] = best
		x[zVar(p, best)] = 1
		c := pc[best]
		for j, l := range c.losses {
			slot := slotOff[p] + j
			incOpen[slot] = true
			if l > incM[slot] {
				incM[slot] = l
			}
		}
		if c.worst > incW {
			incW = c.worst
		}
	}
	for j := 0; j < slots; j++ {
		if incOpen[j] {
			x[yVar(j)] = 1
		}
		x[mVar(j)] = incM[j]
	}
	x[wVar] = incW

	csp := sp.StartSpan("wavelength.decomp.coordinate")
	defer csp.End()
	csp.SetInt("pieces", int64(P))
	csp.SetInt("candidates", int64(totalT))
	csp.SetInt("slots", int64(slots))
	res, err := milp.SolveContext(ctx, prob, milp.Options{
		TimeLimit:   timeLimit,
		Parallelism: parallelism,
		CutRounds:   cutRounds,
		Incumbent:   x,
		Obs:         csp,
	})
	if err != nil {
		return nil, false, false, fmt.Errorf("wavelength: coordination solve: %w", err)
	}
	csp.SetBool("exact", res.Status == milp.Optimal)
	if res.Cancelled {
		return nil, false, true, nil
	}
	switch res.Status {
	case milp.Optimal, milp.Feasible:
		sel := make([]int, P)
		for p := range pieces {
			sel[p] = -1
			for t := range cands[p] {
				if res.X[zVar(p, t)] > 0.5 {
					sel[p] = t
					break
				}
			}
			if sel[p] < 0 {
				return nil, false, false, fmt.Errorf("wavelength: coordination selected no candidate for piece %d", p)
			}
		}
		return sel, res.Status == milp.Optimal, false, nil
	default:
		// No solution within limits: fall back to the standalone incumbent.
		return incSel, false, false, nil
	}
}

// mergeComponents overlays the selected per-piece assignments onto the
// shared palette: within each piece, wavelengths are ranked by their worst
// loss descending (ties by first use) and rank r maps to the piece's
// bank-offset slot r — the alignment the coordination model priced. The
// final Normalize compacts unused slots away.
func mergeComponents(infos []PathInfo, pieces []decompPiece, cands [][]decompCand, sel []int, w Weights) *Assignment {
	slotOff, _, _ := bankOffsets(pieces, cands)
	out := &Assignment{Lambda: make([]int, len(infos))}
	for p, piece := range pieces {
		cand := cands[p][sel[p]]
		sub := subInfos(infos, piece.paths)
		per := PerLambdaLoss(sub, cand.a, w)
		rank := make([]int, len(per))
		for l := range rank {
			rank[l] = l
		}
		sort.SliceStable(rank, func(i, j int) bool { return per[rank[i]] > per[rank[j]] })
		slotOf := make([]int, len(per))
		for r, l := range rank {
			slotOf[l] = slotOff[p] + r
		}
		for i, g := range piece.paths {
			slot := slotOf[cand.a.Lambda[i]]
			out.Lambda[g] = slot
			if slot+1 > out.NumLambda {
				out.NumLambda = slot + 1
			}
		}
	}
	out.Normalize()
	return out
}

// assignDecomposed runs the decomposed exact assignment over the given
// pieces: candidate sweeps per piece, the assembly MILP, and the
// descending-overlay merge. It returns the merged assignment (nil when
// cancelled before coordination finished), the candidate count, whether
// every solve proved optimality, and the cancellation flag.
func assignDecomposed(ctx context.Context, infos []PathInfo, pieces []decompPiece, heur *Assignment, w Weights,
	timeLimit time.Duration, maxBin, extra, parallelism, cutRounds int, sp *obs.Span) (*Assignment, int, bool, bool, error) {

	cands := make([][]decompCand, len(pieces))
	exactAll := true
	total := 0
	for p, piece := range pieces {
		sub := subInfos(infos, piece.paths)
		lam := make([]int, len(piece.paths))
		for i, g := range piece.paths {
			lam[i] = heur.Lambda[g]
		}
		start := &Assignment{Lambda: lam, NumLambda: heur.NumLambda}
		start.Normalize()
		cc, ok, cancelled, err := componentCandidates(ctx, sub, start, w, timeLimit, maxBin, extra, parallelism, cutRounds, sp)
		if err != nil {
			return nil, 0, false, false, err
		}
		if cancelled {
			return nil, total, false, true, nil
		}
		if !ok {
			exactAll = false
		}
		if len(cc) == 0 {
			return nil, total, false, false, fmt.Errorf("wavelength: no candidate for piece %d", p)
		}
		cands[p] = cc
		total += len(cc)
	}

	sel, coordExact, cancelled, err := coordinate(ctx, pieces, cands, w, timeLimit, parallelism, cutRounds, sp)
	if err != nil {
		return nil, total, false, false, err
	}
	if cancelled {
		return nil, total, false, true, nil
	}
	merged := mergeComponents(infos, pieces, cands, sel, w)
	if err := Verify(infos, merged); err != nil {
		return nil, total, false, false, fmt.Errorf("wavelength: decomposed merge invalid: %w", err)
	}
	return merged, total, exactAll && coordExact, false, nil
}
