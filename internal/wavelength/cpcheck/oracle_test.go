package cpcheck

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// oracleProblem draws a random instance for the equality test: 3-14 paths,
// a 2-8 colour palette, 1-4 sender nodes with 1-3 rings each, and losses
// that are sometimes quantised so ties between maxima are common. The seed
// is nil, a first-fit colouring (nil when it overflows the palette) or a
// random and usually invalid assignment.
func oracleProblem(rng *rand.Rand) (Problem, []int) {
	n := 3 + rng.Intn(12)
	p := Problem{
		Paths:     make([]Path, n),
		Adj:       make([][]int, n),
		MaxLambda: 2 + rng.Intn(7),
		W: Weights{
			Alpha:      0.5 + rng.Float64(),
			Beta:       0.5 + rng.Float64(),
			Gamma:      0.5 + rng.Float64(),
			SplitterDB: float64(rng.Intn(3)) * 1.65,
		},
	}
	rings := make([]int, 1+rng.Intn(4))
	for k := range rings {
		rings[k] = 1 + rng.Intn(3)
	}
	quantise := rng.Intn(2) == 0
	for i := range p.Paths {
		k := rng.Intn(len(rings))
		loss := 2 + 4*rng.Float64()
		if quantise {
			loss = math.Round(loss*2) / 2
		}
		p.Paths[i] = Path{Node: 10 * k, Ring: rng.Intn(rings[k]), LossDB: loss}
	}
	density := 0.15 + 0.6*rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				p.Adj[i] = append(p.Adj[i], j)
				p.Adj[j] = append(p.Adj[j], i)
			}
		}
	}
	var seed []int
	switch rng.Intn(3) {
	case 1:
		seed = make([]int, n)
		for i := range seed {
			taken := uint64(0)
			for _, j := range p.Adj[i] {
				if j < i {
					taken |= 1 << uint(seed[j])
				}
			}
			seed[i] = bits.TrailingZeros64(^taken)
			if seed[i] >= p.MaxLambda {
				seed = nil
				break
			}
		}
	case 2:
		seed = make([]int, n)
		for i := range seed {
			seed[i] = rng.Intn(p.MaxLambda)
		}
	}
	return p, seed
}

// TestSolveMatchesOracle demands that the incremental solver explore the
// reference solver's tree exactly: the same node count, the same incumbent
// and bit-identical objective and bound on every instance.
func TestSolveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var nodes int64
	for trial := 0; trial < 3000; trial++ {
		p, seed := oracleProblem(rng)
		want, err := refSolve(context.Background(), p, seed, time.Time{})
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := Solve(context.Background(), p, seed, time.Time{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nodes += got.Nodes
		if got.Nodes != want.Nodes || got.Exact != want.Exact ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
			math.Float64bits(got.Bound) != math.Float64bits(want.Bound) {
			t.Fatalf("trial %d: got nodes=%d exact=%v obj=%x bound=%x, reference nodes=%d exact=%v obj=%x bound=%x",
				trial, got.Nodes, got.Exact, math.Float64bits(got.Objective), math.Float64bits(got.Bound),
				want.Nodes, want.Exact, math.Float64bits(want.Objective), math.Float64bits(want.Bound))
		}
		if (got.Lambda == nil) != (want.Lambda == nil) || len(got.Lambda) != len(want.Lambda) {
			t.Fatalf("trial %d: got assignment %v, reference %v", trial, got.Lambda, want.Lambda)
		}
		for i := range got.Lambda {
			if got.Lambda[i] != want.Lambda[i] {
				t.Fatalf("trial %d: got assignment %v, reference %v", trial, got.Lambda, want.Lambda)
			}
		}
	}
	t.Logf("3000 instances, %d search nodes", nodes)
}

// refSolver is the reference implementation of the search: it recomputes
// the splitters, the per-colour loss maxima and the open-colour mask from
// scratch at every node, and undoes a domain prune by rescanning the
// neighbours of every neighbour. It is the CP oracle exactly as first
// written, kept so TestSolveMatchesOracle can demand the incremental
// solver explore the identical tree.
type refSolver struct {
	p        Problem
	n        int
	cliques  [][]int // greedy clique cover, each sorted
	byVertex [][]int // path -> indices into cliques
	nodeIdx  []int   // path -> dense sender-node index
	nodePath [][]int // dense node -> its path indices
	nRings   []int   // dense node -> number of distinct sender rings

	lambda  []int    // current partial assignment, -1 = unassigned
	dom     []uint64 // remaining palette bits per path
	minLoss float64  // min LossDB over all paths
	maxLoss float64  // max LossDB over all paths

	best    []int
	bestVal float64

	deadline time.Time
	ctx      context.Context
	nodes    int64
	aborted  bool
}

// refSolve is Solve on the reference solver. seed, when non-nil, must be a
// valid assignment; its objective primes the incumbent so the search can
// prove optimality by exhaustion. A zero deadline means no time limit.
func refSolve(ctx context.Context, p Problem, seed []int, deadline time.Time) (Result, error) {
	n := len(p.Paths)
	if n == 0 {
		return Result{}, fmt.Errorf("cpcheck: no paths")
	}
	if p.MaxLambda < 1 || p.MaxLambda > MaxLambdaLimit {
		return Result{}, fmt.Errorf("cpcheck: MaxLambda %d out of range 1..%d", p.MaxLambda, MaxLambdaLimit)
	}
	if len(p.Adj) != n {
		return Result{}, fmt.Errorf("cpcheck: adjacency covers %d paths, want %d", len(p.Adj), n)
	}
	s := &refSolver{
		p:        p,
		n:        n,
		lambda:   make([]int, n),
		dom:      make([]uint64, n),
		deadline: deadline,
		ctx:      ctx,
		bestVal:  math.Inf(1),
	}
	full := uint64(1)<<uint(p.MaxLambda) - 1
	s.minLoss, s.maxLoss = math.Inf(1), 0
	for i := range s.lambda {
		s.lambda[i] = -1
		s.dom[i] = full
		if l := p.Paths[i].LossDB; l < s.minLoss {
			s.minLoss = l
		}
		if l := p.Paths[i].LossDB; l > s.maxLoss {
			s.maxLoss = l
		}
	}
	s.buildCliques()
	s.buildNodes()
	if seed != nil {
		if v, ok := s.evaluate(seed); ok {
			s.best = append([]int(nil), seed...)
			s.bestVal = v
		}
	}
	rootBound := s.lowerBound()
	s.search()

	res := Result{
		Lambda:    s.best,
		Objective: s.bestVal,
		Nodes:     s.nodes,
		Exact:     !s.aborted,
	}
	if res.Exact {
		res.Bound = res.Objective
	} else {
		res.Bound = rootBound
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// buildCliques greedily covers the conflict graph with cliques, highest
// degree first. Each path lists the cliques containing it; the largest
// clique's size is a chromatic lower bound.
func (s *refSolver) buildCliques() {
	order := make([]int, s.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(s.p.Adj[order[a]]), len(s.p.Adj[order[b]])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	adjSet := make([]map[int]bool, s.n)
	for i, nb := range s.p.Adj {
		adjSet[i] = make(map[int]bool, len(nb))
		for _, j := range nb {
			adjSet[i][j] = true
		}
	}
	placed := make([]bool, s.n)
	s.byVertex = make([][]int, s.n)
	for _, v := range order {
		if placed[v] {
			continue
		}
		clique := []int{v}
		placed[v] = true
		// Extend with unplaced vertices adjacent to every member, in the
		// same degree order.
		for _, u := range order {
			if placed[u] {
				continue
			}
			ok := true
			for _, m := range clique {
				if !adjSet[m][u] {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, u)
				placed[u] = true
			}
		}
		sort.Ints(clique)
		ci := len(s.cliques)
		s.cliques = append(s.cliques, clique)
		for _, m := range clique {
			s.byVertex[m] = append(s.byVertex[m], ci)
		}
	}
}

// buildNodes densifies the sender nodes and counts each node's distinct
// sender rings (single-ring nodes never need a splitter).
func (s *refSolver) buildNodes() {
	idx := make(map[int]int)
	s.nodeIdx = make([]int, s.n)
	for i, pt := range s.p.Paths {
		j, ok := idx[pt.Node]
		if !ok {
			j = len(idx)
			idx[pt.Node] = j
			s.nodePath = append(s.nodePath, nil)
			s.nRings = append(s.nRings, 0)
		}
		s.nodeIdx[i] = j
		s.nodePath[j] = append(s.nodePath[j], i)
	}
	for j, paths := range s.nodePath {
		rings := make(map[int]bool)
		for _, i := range paths {
			rings[s.p.Paths[i].Ring] = true
		}
		s.nRings[j] = len(rings)
	}
}

// splitters returns, for the paths assigned in lambda, which dense nodes
// currently require a splitter: two of the node's rings sharing a
// wavelength. Monotone — extending the assignment never removes one.
func (s *refSolver) splitters(lambda []int) []bool {
	out := make([]bool, len(s.nodePath))
	for j, paths := range s.nodePath {
		if s.nRings[j] < 2 {
			continue
		}
		seen := make(map[int]int) // λ -> first ring
		for _, i := range paths {
			l := lambda[i]
			if l < 0 {
				continue
			}
			if r, ok := seen[l]; ok {
				if r != s.p.Paths[i].Ring {
					out[j] = true
					break
				}
			} else {
				seen[l] = s.p.Paths[i].Ring
			}
		}
	}
	return out
}

// evaluate computes the Eq. 8 objective of a complete assignment; ok=false
// when the assignment is out of palette or has a conflict collision.
func (s *refSolver) evaluate(lambda []int) (float64, bool) {
	if len(lambda) != s.n {
		return 0, false
	}
	for i, l := range lambda {
		if l < 0 || l >= s.p.MaxLambda {
			return 0, false
		}
		for _, j := range s.p.Adj[i] {
			if j < i && lambda[j] == l {
				return 0, false
			}
		}
	}
	sp := s.splitters(lambda)
	perColor := make([]float64, s.p.MaxLambda)
	var worst float64
	for i, l := range lambda {
		il := s.p.Paths[i].LossDB
		if sp[s.nodeIdx[i]] {
			il += s.p.W.SplitterDB
		}
		if il > worst {
			worst = il
		}
		if il > perColor[l] {
			perColor[l] = il
		}
	}
	var sum float64
	used := 0
	for _, v := range perColor {
		if v > 0 {
			used++
			sum += v
		}
	}
	return s.p.W.Alpha*float64(used) + s.p.W.Beta*worst + s.p.W.Gamma*sum, true
}

// lowerBound computes a monotone bound on any completion of the current
// partial assignment:
//
//   - splitters already forced stay forced, so assigned paths price their
//     current splitter stage;
//   - every color opened stays open and its max loss never decreases;
//   - unassigned paths whose domain misses every open color must open
//     fresh ones — pairwise-conflicting such paths (within one cover
//     clique) need pairwise-distinct fresh colors, each adding at least
//     the cheapest unassigned loss to the per-color sum;
//   - the worst loss is at least the largest raw path loss, assigned or
//     not.
func (s *refSolver) lowerBound() float64 {
	sp := s.splitters(s.lambda)
	perColor := make([]float64, s.p.MaxLambda)
	worst := s.maxLoss
	var usedMask uint64
	for i, l := range s.lambda {
		if l < 0 {
			continue
		}
		il := s.p.Paths[i].LossDB
		if sp[s.nodeIdx[i]] {
			il += s.p.W.SplitterDB
		}
		if il > worst {
			worst = il
		}
		if il > perColor[l] {
			perColor[l] = il
		}
		usedMask |= 1 << uint(l)
	}
	var sum float64
	used := 0
	for _, v := range perColor {
		if v > 0 {
			used++
			sum += v
		}
	}
	// Fresh colors forced by domains: per cover clique, unassigned members
	// whose domains avoid every open color conflict pairwise, so each
	// needs its own fresh color.
	extra := 0
	minFresh := math.Inf(1)
	for _, clique := range s.cliques {
		forced := 0
		for _, i := range clique {
			if s.lambda[i] >= 0 {
				continue
			}
			if s.dom[i]&usedMask == 0 {
				forced++
				if l := s.p.Paths[i].LossDB; l < minFresh {
					minFresh = l
				}
			}
		}
		if forced > extra {
			extra = forced
		}
	}
	lb := s.p.W.Alpha*float64(used+extra) + s.p.W.Beta*worst + s.p.W.Gamma*sum
	if extra > 0 && !math.IsInf(minFresh, 1) {
		lb += s.p.W.Gamma * float64(extra) * minFresh
	}
	return lb
}

// propagateOK runs the clique all-different check: within every cover
// clique the unassigned members must fit injectively into the union of
// their domains.
func (s *refSolver) propagateOK(touched []int) bool {
	for _, ci := range touched {
		clique := s.cliques[ci]
		var union uint64
		free := 0
		for _, i := range clique {
			if s.lambda[i] < 0 {
				union |= s.dom[i]
				free++
			}
		}
		if bits.OnesCount64(union) < free {
			return false
		}
	}
	return true
}

// pickVar returns the unassigned path with the smallest domain (first
// fail), ties to the higher conflict degree, then the lower index; -1 when
// everything is assigned.
func (s *refSolver) pickVar() int {
	bestI, bestSize, bestDeg := -1, 65, -1
	for i, l := range s.lambda {
		if l >= 0 {
			continue
		}
		sz := bits.OnesCount64(s.dom[i])
		deg := len(s.p.Adj[i])
		if sz < bestSize || (sz == bestSize && deg > bestDeg) {
			bestI, bestSize, bestDeg = i, sz, deg
		}
	}
	return bestI
}

// search runs the depth-first branch-and-bound.
func (s *refSolver) search() {
	s.nodes++
	if s.nodes&deadlineCheckMask == 0 {
		if s.ctx != nil && s.ctx.Err() != nil {
			s.aborted = true
		} else if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.aborted = true
		}
	}
	if s.aborted {
		return
	}
	i := s.pickVar()
	if i < 0 {
		if v, ok := s.evaluate(s.lambda); ok && v < s.bestVal-eps {
			s.best = append(s.best[:0], s.lambda...)
			s.bestVal = v
		}
		return
	}
	if s.lowerBound() >= s.bestVal-eps {
		return
	}
	// Value symmetry: colors are interchangeable, so beyond the open ones
	// only the single lowest fresh color is tried.
	var usedMask uint64
	for _, l := range s.lambda {
		if l >= 0 {
			usedMask |= 1 << uint(l)
		}
	}
	fresh := bits.TrailingZeros64(^usedMask)
	for c := 0; c < s.p.MaxLambda; c++ {
		bit := uint64(1) << uint(c)
		if s.dom[i]&bit == 0 {
			continue
		}
		if usedMask&bit == 0 && c != fresh {
			continue
		}
		s.assign(i, c)
		if s.propagateOK(s.byVertex[i]) {
			s.search()
		}
		s.unassign(i, c)
		if s.aborted {
			return
		}
	}
}

// assign sets path i to color c and prunes neighbour domains.
func (s *refSolver) assign(i, c int) {
	s.lambda[i] = c
	bit := uint64(1) << uint(c)
	for _, j := range s.p.Adj[i] {
		if s.lambda[j] < 0 {
			s.dom[j] &^= bit
		}
	}
}

// unassign undoes assign(i, c), restoring neighbour domains that no other
// assigned neighbour still blocks.
func (s *refSolver) unassign(i, c int) {
	s.lambda[i] = -1
	bit := uint64(1) << uint(c)
	for _, j := range s.p.Adj[i] {
		if s.lambda[j] >= 0 {
			continue
		}
		blocked := false
		for _, k := range s.p.Adj[j] {
			if s.lambda[k] == c {
				blocked = true
				break
			}
		}
		if !blocked {
			s.dom[j] |= bit
		}
	}
}
