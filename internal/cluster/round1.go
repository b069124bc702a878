package cluster

import (
	"math"
	"sync"

	"sring/internal/netlist"
)

// Trajectories shared across L_max probes. Every L_max probe starts its
// level-0 cluster formation with the same round: all active nodes are
// available and the same initial vertices are tried. The growth from v under
// L is a prefix of one unbounded absorption trajectory: bestAbsorption picks
// the first exact minimum among the trials with l <= lmax, so as long as the
// global first minimum L* of a step is at most L it picks the trial it picks
// at any larger bound, and once L* > L the growth stops. Insertion never
// reorders the ring (an absorbed vertex goes after an existing position, and
// position 0 stays the initial vertex), so the order after k absorptions is
// the trajectory's order filtered to the nodes absorbed by then. One
// roundOne per SynthesizeContext call holds a trajectory per round-1 trial
// vertex, extended lazily only as far as the largest bound requested, and
// every probe reads its round-1 growths from it. Inter rings share
// trajectories the same way, keyed by their node set (inter.go; DESIGN.md
// §14.2).

// trajectory is the unbounded growth from one initial vertex, computed as
// far as some probe has needed it. mu guards every field but initial and
// the charged ones.
type trajectory struct {
	mu      sync.Mutex
	initial netlist.NodeID
	started bool
	g       *growth // nil once started if initial has no available partner
	partner netlist.NodeID
	// pair is the initial pair's longest path; steps[k] is absorption
	// k+1; top is the largest of pair and the steps' longest paths.
	pair  float64
	steps []trajStep
	top   float64
	done  bool // no candidate is left
	// charged is the absorptions along the trajectory already counted,
	// and chargedTrials their steps' trials; only the search goroutine
	// touches them.
	charged       int
	chargedTrials int64
}

// trajStep is one absorption along a trajectory: the vertex it absorbed,
// the longest path after it, and the trials evaluated along the trajectory
// up to and including it.
type trajStep struct {
	absorbed netlist.NodeID
	longest  float64
	trials   int64
}

// extend computes absorptions, each under an unbounded L_max, until one
// exceeds limit or no candidate is left, so that every growth under a bound
// up to limit is known.
func (t *trajectory) extend(s *space, limit float64, rs *ringScratch) {
	if !t.started {
		t.started = true
		if t.g = startGrowth(s, t.initial, rs); t.g == nil {
			t.done = true
			return
		}
		t.partner, t.pair = t.g.order[1], t.g.longest
		t.top = t.pair
	}
	for !t.done && t.top <= limit {
		before := rs.trials
		cand, ok := t.g.step(math.Inf(1), rs)
		if !ok {
			t.done = true
			break
		}
		trials := t.trialsTo(len(t.steps)) + rs.trials - before
		t.steps = append(t.steps, trajStep{absorbed: cand, longest: t.g.longest, trials: trials})
		t.top = max(t.top, t.g.longest)
	}
}

// prefix returns the growth under lmax, which extend must have made known,
// and the absorptions it took: the order, members and longest path of the
// growth from the initial vertex over all active nodes, grown under lmax
// to the end.
func (t *trajectory) prefix(lmax float64) (grown, int) {
	if t.g == nil || t.pair > lmax {
		return grown{members: map[netlist.NodeID]bool{t.initial: true}}, 0
	}
	k := 0
	for k < len(t.steps) && t.steps[k].longest <= lmax {
		k++
	}
	members := make(map[netlist.NodeID]bool, k+2)
	members[t.initial] = true
	members[t.partner] = true
	for _, st := range t.steps[:k] {
		members[st.absorbed] = true
	}
	order := make([]netlist.NodeID, 0, k+2)
	for _, id := range t.g.order {
		if members[id] {
			order = append(order, id)
		}
	}
	longest := t.pair
	if k > 0 {
		longest = t.steps[k-1].longest
	}
	return grown{order: order, members: members, longest: longest}, k
}

// read is how far one probe read along a shared trajectory: the
// absorptions its growth there took, and the trials their steps evaluated.
type read struct {
	t      *trajectory
	k      int
	trials int64
}

// trialsTo returns the trials evaluated by the trajectory's first k
// absorbing steps. The caller holds t.mu.
func (t *trajectory) trialsTo(k int) int64 {
	if k == 0 {
		return 0
	}
	return t.steps[k-1].trials
}

// readTo records a read of the trajectory's first k absorptions. The
// caller holds t.mu.
func (t *trajectory) readTo(k int) read {
	return read{t, k, t.trialsTo(k)}
}

// chargeReads returns the absorptions a consumed probe adds, and the trials
// their steps evaluated: along each trajectory it read, those beyond what
// earlier consumed probes were charged. Called in the search's consumption
// order, it counts what the sequential search computes, whichever probe
// actually extended a trajectory first.
func chargeReads(reads []read) (absorbs, trials int64) {
	for _, r := range reads {
		if r.k > r.t.charged {
			absorbs += int64(r.k - r.t.charged)
			trials += r.trials - r.t.chargedTrials
			r.t.charged, r.t.chargedTrials = r.k, r.trials
		}
	}
	return absorbs, trials
}

// roundOne holds the round-1 trajectories of one SynthesizeContext call,
// one per trial vertex in trial order, shared by every L_max probe. Its
// space's avail is every active node and is read-only.
type roundOne struct {
	space
	trajs []trajectory
}

func newRoundOne(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID, maxTrials int) *roundOne {
	active := app.ActiveNodes()
	avail := make(map[netlist.NodeID]bool, len(active))
	for _, id := range active {
		avail[id] = true
	}
	trials := sampleTrials(active, maxTrials)
	r := &roundOne{space: space{app: app, adj: adj, avail: avail}, trajs: make([]trajectory, len(trials))}
	for i, v := range trials {
		r.trajs[i].initial = v
	}
	return r
}

// growths returns the round-1 growth from every trial vertex under lmax, in
// trial order, and records in w how far each trajectory was read. It serves
// the trajectories no other probe holds first, then waits for the rest;
// each one's lock is held only while it is extended and its prefix copied
// out.
func (r *roundOne) growths(lmax float64, w *work, rs *ringScratch) []grown {
	out := make([]grown, len(r.trajs))
	reads := make([]read, len(r.trajs))
	grow := func(i int) {
		t := &r.trajs[i]
		t.extend(&r.space, lmax, rs)
		g, k := t.prefix(lmax)
		out[i], reads[i] = g, t.readTo(k)
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
	w.reads = append(w.reads, reads...)
	return out
}
