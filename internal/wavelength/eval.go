package wavelength

import (
	"fmt"
	"sort"

	"sring/internal/netlist"
)

// evaluator is the one implementation of the paper's Eq. 8 objective. It is
// built once per path set and then scores any number of assignments of that
// set into reused buffers, so the hill climb's per-candidate scoring
// allocates nothing.
//
// Construction gives every sender node a dense index (ascending NodeID) and
// caches each path's sender index and ring. Scoring runs two passes over
// the paths:
//
//  1. Splitter detection. A node needs a PDN splitter when two of its
//     senders, on different rings, share a wavelength (Sec. III-B). A
//     (sender node, λ) table records the first ring seen using λ; a later
//     path on the same (node, λ) from another ring marks the node. Entries
//     carry a generation stamp, so the table is never cleared between
//     calls.
//  2. Losses. Each path's il_s = L_s (+ L_sp at a splitter node) folds
//     into the worst-path maximum and the per-λ maxima il_λ^max.
//
// The per-λ sum runs in λ index order, so Objective.Value is bit-identical
// to a direct evaluation of Eq. 8.
//
// An evaluator is not safe for concurrent use.
type evaluator struct {
	infos  []PathInfo
	sender []int            // dense sender index per path
	ring   []int            // sender ring per path
	nodes  []netlist.NodeID // sender node per dense index, ascending

	width int // palette width of the table
	gen   uint32
	table []firstRing // (sender, λ) at sender*width + λ

	// Valid after a score or markSplitters call, until the next one.
	split     []bool    // per sender: needs a splitter
	nSplit    int       // number of true entries in split
	perLambda []float64 // il_λ^max per λ < NumLambda (score only)
}

// firstRing is one (sender node, λ) table entry: the first ring seen using
// λ at that node, valid when gen matches the evaluator's generation.
type firstRing struct {
	gen  uint32
	ring int
}

// newEvaluator precomputes the sender index and ring of every path.
func newEvaluator(infos []PathInfo) *evaluator {
	e := &evaluator{
		infos:  infos,
		sender: make([]int, len(infos)),
		ring:   make([]int, len(infos)),
		nodes:  make([]netlist.NodeID, len(infos)),
	}
	for i, pi := range infos {
		e.nodes[i] = pi.SenderNode()
		e.ring[i] = pi.SenderRing()
	}
	sort.Slice(e.nodes, func(i, j int) bool { return e.nodes[i] < e.nodes[j] })
	k := 0
	for i, n := range e.nodes {
		if i == 0 || n != e.nodes[k-1] {
			e.nodes[k] = n
			k++
		}
	}
	e.nodes = e.nodes[:k]
	for i, pi := range infos {
		e.sender[i] = e.senderIndex(pi.SenderNode())
	}
	e.split = make([]bool, k)
	return e
}

// senderIndex returns the dense index of node n, or -1 if n sends nothing.
func (e *evaluator) senderIndex(n netlist.NodeID) int {
	s := sort.Search(len(e.nodes), func(i int) bool { return e.nodes[i] >= n })
	if s < len(e.nodes) && e.nodes[s] == n {
		return s
	}
	return -1
}

// nodeSplit reports whether node n needs a splitter under the last scored
// assignment.
func (e *evaluator) nodeSplit(n netlist.NodeID) bool {
	s := e.senderIndex(n)
	return s >= 0 && e.split[s]
}

// markSplitters runs the splitter pass for the per-path wavelengths lambda,
// every one of which must lie in [0, width).
func (e *evaluator) markSplitters(lambda []int, width int) {
	if width > e.width {
		e.width = max(width, 2*e.width)
		e.table = make([]firstRing, len(e.nodes)*e.width)
		e.gen = 0
	}
	e.gen++
	if e.gen == 0 { // wrapped: stale stamps could collide
		for i := range e.table {
			e.table[i] = firstRing{}
		}
		e.gen = 1
	}
	clear(e.split)
	e.nSplit = 0
	for i, s := range e.sender {
		l := lambda[i]
		if uint(l) >= uint(width) {
			panic(fmt.Sprintf("wavelength: path %d has wavelength %d outside palette [0, %d)", i, l, width))
		}
		ent := &e.table[s*e.width+l]
		if ent.gen != e.gen {
			*ent = firstRing{gen: e.gen, ring: e.ring[i]}
		} else if ent.ring != e.ring[i] && !e.split[s] {
			e.split[s] = true
			e.nSplit++
		}
	}
}

// score evaluates Eq. 8 for a, whose wavelengths must lie in
// [0, a.NumLambda). It leaves the splitter marks and the per-λ maxima in
// the evaluator's buffers.
func (e *evaluator) score(a *Assignment, w Weights) Objective {
	e.markSplitters(a.Lambda, a.NumLambda)
	if cap(e.perLambda) < a.NumLambda {
		e.perLambda = make([]float64, a.NumLambda)
	}
	e.perLambda = e.perLambda[:a.NumLambda]
	clear(e.perLambda)
	var worst float64
	for i, pi := range e.infos {
		il := pi.LossDB
		if e.split[e.sender[i]] {
			il += w.SplitterStageDB
		}
		if il > worst {
			worst = il
		}
		if l := a.Lambda[i]; il > e.perLambda[l] {
			e.perLambda[l] = il
		}
	}
	var sum float64
	used := 0
	for _, v := range e.perLambda {
		sum += v
		if v > 0 {
			used++
		}
	}
	obj := Objective{
		NumLambda:    used,
		WorstIL:      worst,
		SumPerLambda: sum,
		Splitters:    e.nSplit,
	}
	obj.Value = w.Alpha*float64(used) + w.Beta*worst + w.Gamma*sum
	return obj
}

// splitterNodes appends the nodes marked by the last scoring call to dst,
// in ascending NodeID order.
func (e *evaluator) splitterNodes(dst []netlist.NodeID) []netlist.NodeID {
	for s, sp := range e.split {
		if sp {
			dst = append(dst, e.nodes[s])
		}
	}
	return dst
}
