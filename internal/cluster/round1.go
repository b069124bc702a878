package cluster

import (
	"math"
	"sync"

	"sring/internal/netlist"
)

// Shared round-1 growths. Every L_max probe starts its level-0 cluster
// formation with the same round: all active nodes are available and the
// same initial vertices are tried. The growth from v under L is a prefix of
// one unbounded absorption trajectory: bestAbsorption picks the first exact
// minimum among the trials with l <= lmax, so as long as the global first
// minimum L* of a step is at most L it picks the trial it picks at any
// larger bound, and once L* > L the growth stops. Insertion never reorders
// the ring (an absorbed vertex goes after an existing position, and
// position 0 stays the initial vertex), so the order after k absorptions is
// the trajectory's order filtered to the nodes absorbed by then. One
// roundOne per SynthesizeContext call holds a trajectory per round-1 trial
// vertex, extended lazily only as far as the largest bound requested, and
// every probe reads its round-1 growths from it (DESIGN.md §14.2).

// trajectory is the unbounded round-1 growth from one initial vertex,
// computed as far as some probe has needed it. mu guards every field but
// initial.
type trajectory struct {
	mu      sync.Mutex
	initial netlist.NodeID
	started bool
	g       *growth // nil once started if initial has no available partner
	partner netlist.NodeID
	// pair is the initial pair's longest path; vals[k] the longest path
	// after absorption k+1, which absorbed absorbed[k]; top is the largest
	// of vals.
	pair     float64
	vals     []float64
	absorbed []netlist.NodeID
	top      float64
	done     bool // no candidate is left
}

// extend computes absorptions, each under an unbounded L_max, until one
// exceeds lmax or no candidate is left, so that the growth under lmax is
// known.
func (t *trajectory) extend(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID,
	avail map[netlist.NodeID]bool, lmax float64, rs *ringScratch) {

	if !t.started {
		t.started = true
		t.top = math.Inf(-1)
		if t.g = startGrowth(app, adj, t.initial, avail, rs); t.g == nil {
			t.done = true
			return
		}
		t.partner, t.pair = t.g.order[1], t.g.longest
	}
	if t.pair > lmax {
		return // a singleton under lmax, whatever follows
	}
	for !t.done && t.top <= lmax {
		cand, ok := t.g.step(math.Inf(1), rs)
		if !ok {
			t.done = true
			break
		}
		t.vals = append(t.vals, t.g.longest)
		t.absorbed = append(t.absorbed, cand)
		t.top = max(t.top, t.g.longest)
	}
}

// prefix returns the growth under lmax, which extend must have made known,
// and the absorptions it took: the order, members and longest path of
// growCluster from the initial vertex over all active nodes.
func (t *trajectory) prefix(lmax float64) (grown, int) {
	if t.g == nil || t.pair > lmax {
		return grown{members: map[netlist.NodeID]bool{t.initial: true}}, 0
	}
	k := 0
	for k < len(t.vals) && t.vals[k] <= lmax {
		k++
	}
	members := make(map[netlist.NodeID]bool, k+2)
	members[t.initial] = true
	members[t.partner] = true
	for _, id := range t.absorbed[:k] {
		members[id] = true
	}
	order := make([]netlist.NodeID, 0, k+2)
	for _, id := range t.g.order {
		if members[id] {
			order = append(order, id)
		}
	}
	longest := t.pair
	if k > 0 {
		longest = t.vals[k-1]
	}
	return grown{order: order, members: members, longest: longest}, k
}

// roundOne holds the round-1 trajectories of one SynthesizeContext call,
// one per trial vertex in trial order, shared by every L_max probe.
type roundOne struct {
	app   *netlist.Application
	adj   map[netlist.NodeID][]netlist.NodeID
	avail map[netlist.NodeID]bool // every active node; read-only
	trajs []trajectory
	// charged[i] is the absorptions along trajectory i already counted;
	// only the search goroutine touches it.
	charged []int
}

func newRoundOne(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID, maxTrials int) *roundOne {
	active := app.ActiveNodes()
	avail := make(map[netlist.NodeID]bool, len(active))
	for _, id := range active {
		avail[id] = true
	}
	trials := sampleTrials(active, maxTrials)
	r := &roundOne{app: app, adj: adj, avail: avail,
		trajs: make([]trajectory, len(trials)), charged: make([]int, len(trials))}
	for i, v := range trials {
		r.trajs[i].initial = v
	}
	return r
}

// growths returns the round-1 growth from every trial vertex under lmax, in
// trial order, and the absorptions each took. It serves the trajectories no
// other probe holds first, then waits for the rest; each one's lock is held
// only while it is extended and its prefix copied out.
func (r *roundOne) growths(lmax float64, rs *ringScratch) ([]grown, []int) {
	out := make([]grown, len(r.trajs))
	needs := make([]int, len(r.trajs))
	grow := func(i int) {
		t := &r.trajs[i]
		t.extend(r.app, r.adj, r.avail, lmax, rs)
		out[i], needs[i] = t.prefix(lmax)
		t.mu.Unlock()
	}
	var busy []int
	for i := range r.trajs {
		if r.trajs[i].mu.TryLock() {
			grow(i)
		} else {
			busy = append(busy, i)
		}
	}
	for _, i := range busy {
		r.trajs[i].mu.Lock()
		grow(i)
	}
	return out, needs
}

// charge returns the absorptions a consumed probe adds, given the
// absorptions needs[i] its bound took along each trajectory: those beyond
// what earlier consumed probes were charged. Called in the search's
// consumption order, it counts what the sequential search computes,
// whichever probe actually extended a trajectory first.
func (r *roundOne) charge(needs []int) int64 {
	var n int64
	for i, k := range needs {
		if k > r.charged[i] {
			n += int64(k - r.charged[i])
			r.charged[i] = k
		}
	}
	return n
}
