// Package cpcheck is an independent exact oracle for the paper's Eq. 8
// wavelength-assignment problem: a constraint-propagation + backtracking
// solver over the palette-assignment variables, used to cross-check the
// MILP's optima and as a fallback when branch-and-bound stalls.
//
// The solver shares no code with the simplex/MILP stack — conflicts are
// all-different constraints over conflict cliques, losses enter through a
// monotone lower bound — so agreement between the two is meaningful
// evidence that both are right.
//
// The package deliberately does not import internal/wavelength: it states
// the problem in its own minimal terms (paths with a sender node, a sender
// ring and a loss; a conflict adjacency), which lets the wavelength package
// import it for the -oracle=cp fallback without a cycle.
//
// The search state is kept incrementally, so a search node costs
// O(degree + palette) and allocates nothing:
//
//   - domains: per (path, colour) the number of assigned neighbours on that
//     colour; a domain bit clears on its 0→1 step and returns on its 1→0
//     step;
//   - open colours: per-colour path counts and the mask of colours in use;
//   - splitters: per (node, colour, local ring) occupancy, the number of
//     distinct rings per (node, colour), and per node the number of colours
//     carried by two or more rings — the node needs a splitter while that
//     last count is positive;
//   - loss maxima: the per-colour and overall maxima of the priced path
//     losses, raised on assign (every assigned path of a node is re-priced
//     when the node's splitter turns on) and restored from an undo trail on
//     unassign. Search is LIFO, so unassign rewinds the trail to the mark
//     its assign left.
//
// Maxima do not depend on the order they are raised in, and the bound and
// the objective still sum the per-colour maxima in colour order, so the
// search explores the same tree, bit for bit, as a solver that recomputes
// everything at every node (kept in oracle_test.go as the equality oracle).
package cpcheck

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Path is one sender path: the sender node and ring identify the physical
// sender (splitter bookkeeping), LossDB is the path's insertion loss
// excluding any node-splitter stage.
type Path struct {
	Node   int
	Ring   int
	LossDB float64
}

// Weights are the Eq. 8 objective coefficients and the splitter stage loss.
type Weights struct {
	Alpha, Beta, Gamma float64
	SplitterDB         float64
}

// Problem is one assignment instance. Adj must be a symmetric conflict
// adjacency over the path indices without self-loops; MaxLambda caps the
// palette (at most 64: domains are single-word bitsets). SplitterDB must
// not be negative: the bound relies on a splitter never lowering a loss.
type Problem struct {
	Paths     []Path
	Adj       [][]int
	MaxLambda int
	W         Weights
}

// Result reports the search outcome.
type Result struct {
	// Lambda is the best complete assignment found, nil when none exists
	// within the palette (or none was found before the deadline).
	Lambda []int
	// Objective is Lambda's Eq. 8 value, +Inf when Lambda is nil.
	Objective float64
	// Bound is a proven lower bound on the optimal value: equal to
	// Objective when Exact, the weaker root bound otherwise.
	Bound float64
	// Exact reports that the search ran to completion, so Objective is the
	// proven optimum (or the instance is proven infeasible).
	Exact bool
	// Nodes counts the backtracking search nodes explored.
	Nodes int64
}

// MaxLambdaLimit is the largest palette the bitset domains support.
const MaxLambdaLimit = 64

const eps = 1e-9

// solver holds the search state. All state is deterministic: variable and
// value orders break ties on indices, and the deadline only aborts the
// search (marking the result inexact), never reorders it.
type solver struct {
	p        Problem
	n        int
	nl       int     // palette size, p.MaxLambda
	cliques  [][]int // greedy clique cover, each sorted
	byVertex [][]int // path -> indices into cliques
	nodeIdx  []int   // path -> dense sender-node index
	nodePath [][]int // dense node -> its path indices
	occRow   []int   // path -> offset of its (node, ring) row in occ

	lambda  []int    // current partial assignment, -1 = unassigned
	dom     []uint64 // palette bits no assigned neighbour holds, per path
	maxLoss float64  // max LossDB over all paths, at least 0

	nbrCnt   []int32   // path*nl+c -> assigned neighbours on colour c
	colCnt   []int32   // colour -> assigned paths
	used     uint64    // colours with colCnt > 0
	occ      []int32   // occRow[path]+c -> assigned paths of that node and ring on c
	ringCnt  []int32   // node*nl+c -> rings of the node carrying colour c
	multi    []int32   // node -> colours carried by two or more rings
	perColor []float64 // colour -> max priced loss on it, 0 when none
	worst    float64   // max priced loss over assigned paths, 0 when none
	trail    []undo    // prior values of perColor and worst, in raise order
	mark     []int     // path -> trail length when it was assigned

	best    []int
	bestVal float64

	deadline time.Time
	ctx      context.Context
	nodes    int64
	aborted  bool
}

// undo records one overwritten loss maximum: perColor[slot], or worst when
// slot is -1.
type undo struct {
	slot int
	old  float64
}

// Solve searches for the optimal assignment. seed, when non-nil, must be a
// valid assignment; its objective primes the incumbent so the search can
// prove optimality by exhaustion. A zero deadline means no time limit.
func Solve(ctx context.Context, p Problem, seed []int, deadline time.Time) (Result, error) {
	s, err := newSolver(ctx, p, deadline)
	if err != nil {
		return Result{}, err
	}
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

// newSolver validates p and builds the root search state.
func newSolver(ctx context.Context, p Problem, deadline time.Time) (*solver, error) {
	n := len(p.Paths)
	if n == 0 {
		return nil, fmt.Errorf("cpcheck: no paths")
	}
	if p.MaxLambda < 1 || p.MaxLambda > MaxLambdaLimit {
		return nil, fmt.Errorf("cpcheck: MaxLambda %d out of range 1..%d", p.MaxLambda, MaxLambdaLimit)
	}
	if p.W.SplitterDB < 0 {
		return nil, fmt.Errorf("cpcheck: negative SplitterDB %v", p.W.SplitterDB)
	}
	adj, err := adjacencyBits(p.Adj, n)
	if err != nil {
		return nil, err
	}
	nl := p.MaxLambda
	s := &solver{
		p:        p,
		n:        n,
		nl:       nl,
		lambda:   make([]int, n),
		dom:      make([]uint64, n),
		nbrCnt:   make([]int32, n*nl),
		colCnt:   make([]int32, nl),
		perColor: make([]float64, nl),
		trail:    make([]undo, 0, 4*n),
		mark:     make([]int, n),
		deadline: deadline,
		ctx:      ctx,
		bestVal:  math.Inf(1),
	}
	full := uint64(1)<<uint(nl) - 1
	for i := range s.lambda {
		s.lambda[i] = -1
		s.dom[i] = full
		if l := p.Paths[i].LossDB; l > s.maxLoss {
			s.maxLoss = l
		}
	}
	s.buildCliques(adj)
	s.buildNodes()
	return s, nil
}

// adjacencyBits checks that adj is a symmetric adjacency over n paths with
// in-range indices and no self-loops, and returns it as bitset rows.
func adjacencyBits(adj [][]int, n int) ([][]uint64, error) {
	if len(adj) != n {
		return nil, fmt.Errorf("cpcheck: adjacency covers %d paths, want %d", len(adj), n)
	}
	words := (n + 63) / 64
	flat := make([]uint64, n*words)
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = flat[i*words : (i+1)*words]
	}
	for i, nb := range adj {
		for _, j := range nb {
			if j < 0 || j >= n {
				return nil, fmt.Errorf("cpcheck: path %d lists neighbour %d, outside 0..%d", i, j, n-1)
			}
			if j == i {
				return nil, fmt.Errorf("cpcheck: path %d lists itself as a neighbour", i)
			}
			rows[i][j/64] |= 1 << uint(j%64)
		}
	}
	for i, nb := range adj {
		for _, j := range nb {
			if rows[j][i/64]&(1<<uint(i%64)) == 0 {
				return nil, fmt.Errorf("cpcheck: asymmetric adjacency: %d lists %d but %d does not list %d", i, j, j, i)
			}
		}
	}
	return rows, nil
}

// buildCliques greedily covers the conflict graph with cliques, highest
// degree first. Each path lists the cliques containing it; the largest
// clique's size is a chromatic lower bound.
func (s *solver) buildCliques(adj [][]uint64) {
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
				if adj[m][u/64]&(1<<uint(u%64)) == 0 {
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

// buildNodes densifies the sender nodes and, per node, its sender rings:
// each (node, ring) pair gets one palette-wide row of occupancy counters.
func (s *solver) buildNodes() {
	nodes := make(map[int]int)
	rows := make(map[[2]int]int) // (node, ring) -> row offset in occ
	s.nodeIdx = make([]int, s.n)
	s.occRow = make([]int, s.n)
	for i, pt := range s.p.Paths {
		j, ok := nodes[pt.Node]
		if !ok {
			j = len(s.nodePath)
			nodes[pt.Node] = j
			s.nodePath = append(s.nodePath, nil)
		}
		s.nodeIdx[i] = j
		s.nodePath[j] = append(s.nodePath[j], i)
		r, ok := rows[[2]int{pt.Node, pt.Ring}]
		if !ok {
			r = len(rows) * s.nl
			rows[[2]int{pt.Node, pt.Ring}] = r
		}
		s.occRow[i] = r
	}
	s.occ = make([]int32, len(rows)*s.nl)
	s.ringCnt = make([]int32, len(s.nodePath)*s.nl)
	s.multi = make([]int32, len(s.nodePath))
}

// evaluate computes the Eq. 8 objective of a complete assignment; ok=false
// when the assignment is out of palette or has a conflict collision. It
// prices through the search state: assign every path, read the objective,
// unassign in reverse.
func (s *solver) evaluate(lambda []int) (float64, bool) {
	if len(lambda) != s.n {
		return 0, false
	}
	for i, l := range lambda {
		if l < 0 || l >= s.nl {
			return 0, false
		}
		for _, j := range s.p.Adj[i] {
			if j < i && lambda[j] == l {
				return 0, false
			}
		}
	}
	for i, l := range lambda {
		s.assign(i, l)
	}
	v := s.objective()
	for i := s.n - 1; i >= 0; i-- {
		s.unassign(i, lambda[i])
	}
	return v, true
}

// colourSum returns the number of colours with a positive loss maximum and
// the sum of those maxima, accumulated in colour order.
func (s *solver) colourSum() (int, float64) {
	var sum float64
	used := 0
	for _, v := range s.perColor {
		if v > 0 {
			used++
			sum += v
		}
	}
	return used, sum
}

// objective is the Eq. 8 value of the current (complete) assignment.
func (s *solver) objective() float64 {
	used, sum := s.colourSum()
	return s.p.W.Alpha*float64(used) + s.p.W.Beta*s.worst + s.p.W.Gamma*sum
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
func (s *solver) lowerBound() float64 {
	worst := s.maxLoss
	if s.worst > worst {
		worst = s.worst
	}
	used, sum := s.colourSum()
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
			if s.dom[i]&s.used == 0 {
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
func (s *solver) propagateOK(touched []int) bool {
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
func (s *solver) pickVar() int {
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

const deadlineCheckMask = 0x3ff // check the clock every 1024 nodes

// search runs the depth-first branch-and-bound.
func (s *solver) search() {
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
		if v := s.objective(); v < s.bestVal-eps {
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
	used := s.used
	fresh := bits.TrailingZeros64(^used)
	for c := 0; c < s.nl; c++ {
		bit := uint64(1) << uint(c)
		if s.dom[i]&bit == 0 {
			continue
		}
		if used&bit == 0 && c != fresh {
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

// assign sets path i to color c: it blocks c in the neighbours' domains,
// opens c, updates the node's splitter counters and raises the loss
// maxima — for every assigned path of the node when its splitter turns on.
// Domains of assigned neighbours are updated too; nothing reads them until
// the neighbour is unassigned, by which time they are right again.
func (s *solver) assign(i, c int) {
	s.lambda[i] = c
	s.mark[i] = len(s.trail)
	bit := uint64(1) << uint(c)
	for _, j := range s.p.Adj[i] {
		k := j*s.nl + c
		s.nbrCnt[k]++
		if s.nbrCnt[k] == 1 {
			s.dom[j] &^= bit
		}
	}
	s.colCnt[c]++
	s.used |= bit

	node := s.nodeIdx[i]
	if s.occupy(node, s.occRow[i]+c, c) {
		// The node's splitter turns on: re-price its assigned paths, i
		// among them.
		for _, j := range s.nodePath[node] {
			if l := s.lambda[j]; l >= 0 {
				s.raise(l, s.p.Paths[j].LossDB+s.p.W.SplitterDB)
			}
		}
		return
	}
	il := s.p.Paths[i].LossDB
	if s.multi[node] > 0 {
		il += s.p.W.SplitterDB
	}
	s.raise(c, il)
}

// occupy counts one more path of node on occupancy slot o (its ring on
// colour c) and reports whether that turned the node's splitter on.
func (s *solver) occupy(node, o, c int) bool {
	s.occ[o]++
	if s.occ[o] > 1 {
		return false
	}
	k := node*s.nl + c
	s.ringCnt[k]++
	if s.ringCnt[k] != 2 {
		return false
	}
	s.multi[node]++
	return s.multi[node] == 1
}

// raise lifts the loss maxima of colour c and overall to il, trailing the
// values it overwrites.
func (s *solver) raise(c int, il float64) {
	if il > s.perColor[c] {
		s.trail = append(s.trail, undo{c, s.perColor[c]})
		s.perColor[c] = il
	}
	if il > s.worst {
		s.trail = append(s.trail, undo{-1, s.worst})
		s.worst = il
	}
}

// unassign undoes assign(i, c): it rewinds the loss maxima to the mark
// assign left and reverses every counter step.
func (s *solver) unassign(i, c int) {
	m := s.mark[i]
	for t := len(s.trail) - 1; t >= m; t-- {
		if u := s.trail[t]; u.slot < 0 {
			s.worst = u.old
		} else {
			s.perColor[u.slot] = u.old
		}
	}
	s.trail = s.trail[:m]

	node := s.nodeIdx[i]
	o := s.occRow[i] + c
	s.occ[o]--
	if s.occ[o] == 0 {
		k := node*s.nl + c
		if s.ringCnt[k] == 2 {
			s.multi[node]--
		}
		s.ringCnt[k]--
	}
	bit := uint64(1) << uint(c)
	s.colCnt[c]--
	if s.colCnt[c] == 0 {
		s.used &^= bit
	}
	for _, j := range s.p.Adj[i] {
		k := j*s.nl + c
		s.nbrCnt[k]--
		if s.nbrCnt[k] == 0 {
			s.dom[j] |= bit
		}
	}
	s.lambda[i] = -1
}
