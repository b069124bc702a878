package cluster

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"sring/internal/netlist"
)

// Inter rings. The terminal ring of a construction must carry every node of
// its set, so the growth from a trial vertex under L_max is all or nothing:
// it is the unbounded trajectory from that vertex when no step of the
// trajectory exceeds L_max, and invalid otherwise (the same prefix argument
// as round 1's, round1.go). Many probes build their inter ring over the same
// node set, so the trajectories are kept per node set and shared by every
// L_max probe of one SynthesizeContext call, extended lazily.

// interSet is the inter-ring problem over one node set: its space (the set,
// its internal adjacency, and the fallback to every remaining node) and one
// trajectory per trial vertex, in trial order.
type interSet struct {
	space
	trajs []trajectory
}

// interKey encodes a sorted node list as a map key.
func interKey(ids []netlist.NodeID) string {
	buf := make([]byte, 0, 2*len(ids))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return string(buf)
}

// interSet returns the shared inter-ring problem over nodes, creating it on
// first use. nodes itself is not retained.
func (p *problem) interSet(nodes map[netlist.NodeID]bool) *interSet {
	ids := make([]netlist.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	key := interKey(ids)
	p.interMu.Lock()
	defer p.interMu.Unlock()
	if set, ok := p.inter[key]; ok {
		return set
	}
	avail := make(map[netlist.NodeID]bool, len(ids))
	for _, id := range ids {
		avail[id] = true
	}
	adj := make(map[netlist.NodeID][]netlist.NodeID) // adjacency in the inter graph
	for _, m := range p.app.Messages {
		if avail[m.Src] && avail[m.Dst] {
			adj[m.Src] = append(adj[m.Src], m.Dst)
			adj[m.Dst] = append(adj[m.Dst], m.Src)
		}
	}
	trials := sampleTrials(ids, p.maxTrials)
	set := &interSet{space: space{app: p.app, adj: adj, avail: avail, fill: true}, trajs: make([]trajectory, len(trials))}
	for i, v := range trials {
		set.trajs[i].initial = v
	}
	p.inter[key] = set
	return set
}

// interRing constructs the inter-cluster sub-ring over all of nodes: each
// trial vertex is tried as the initial vertex, and the valid complete ring
// with the shortest longest path wins, the first in trial order on ties. It
// returns nil if no initial vertex yields a valid complete ring.
//
// A ring's longest path never falls as it grows (DESIGN.md §14.2), so a
// trial is abandoned once a step exceeds the best complete ring's longest
// path by more than absorbEps: it could only finish longer. Its trajectory
// is extended no further than that cut, or L_max if lower.
func (p *problem) interRing(nodes map[netlist.NodeID]bool, lmax float64, w *work, rs *ringScratch) []netlist.NodeID {
	if len(nodes) < 2 {
		return nil
	}
	set := p.interSet(nodes)
	var best []netlist.NodeID
	bestLongest := math.Inf(1)
	for i := range set.trajs {
		t := &set.trajs[i]
		cut := math.Min(lmax, bestLongest+absorbEps)
		t.mu.Lock()
		t.extend(&set.space, cut, rs)
		longest, k, complete, abandoned := t.verdict(lmax, cut)
		if complete && longest < bestLongest {
			best, bestLongest = slices.Clone(t.g.order), longest
		}
		w.reads = append(w.reads, t.readTo(k))
		t.mu.Unlock()
		if abandoned {
			w.abandoned++
		}
	}
	return best
}

// verdict reads the growth under lmax from a trajectory that extend has
// made known up to cut <= lmax: the absorptions it keeps within cut,
// whether it completes with every step within cut (and then its longest
// path), and whether it is abandoned, a step exceeding cut but not lmax. A
// step above lmax fails the growth, as in the paper's construction; neither
// that step nor the one exceeding cut is counted as an absorption.
func (t *trajectory) verdict(lmax, cut float64) (longest float64, k int, complete, abandoned bool) {
	if t.g == nil {
		return 0, 0, false, false
	}
	if t.pair > cut {
		return 0, 0, false, t.pair <= lmax
	}
	for k < len(t.steps) && t.steps[k].longest <= cut {
		k++
	}
	if k < len(t.steps) {
		return 0, k, false, t.steps[k].longest <= lmax
	}
	// Every step is within cut, so extend ran the trajectory to its end.
	longest = t.pair
	if k > 0 {
		longest = t.steps[k-1].longest
	}
	return longest, k, true, false
}
