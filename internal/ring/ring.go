// Package ring models directed optical ring waveguides and the signal paths
// reserved on them.
//
// A Ring is a circular waveguide visiting an ordered cycle of nodes; optical
// signals travel in one fixed direction (the order of the cycle). A signal
// path from src to dst occupies the contiguous arc of waveguide segments
// from src around to dst. Two paths on the same ring conflict — must be
// assigned different wavelengths (paper Eq. 2) — exactly when their arcs
// share at least one segment.
package ring

import (
	"fmt"
	"slices"

	"sring/internal/netlist"
)

// Kind labels the role of a ring in a design.
type Kind int

const (
	// Intra is an intra-cluster sub-ring (SRing).
	Intra Kind = iota
	// Inter is the inter-cluster sub-ring (SRing).
	Inter
	// Base is a conventional full ring waveguide (ORNoC/CTORing/XRing).
	Base
)

// String returns the kind label.
func (k Kind) String() string {
	switch k {
	case Intra:
		return "intra"
	case Inter:
		return "inter"
	case Base:
		return "base"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Ring is a directed circular waveguide. Signals travel from Order[i] to
// Order[i+1] (indices mod len(Order)); segment i is the waveguide between
// Order[i] and Order[i+1].
//
// A ring of two nodes is an out-and-back loop with two distinct segments,
// as in the paper's initial two-node clusters (Fig. 5(c)).
type Ring struct {
	ID   int
	Kind Kind
	// Level is the ring's height in a hierarchical construction: 0 for
	// intra-cluster and conventional base rings, k >= 1 for the k-th
	// escalation level of inter-cluster sub-rings (the paper's single
	// inter ring is level 1).
	Level int
	Order []netlist.NodeID
}

// Validate checks the ring is well-formed: at least two nodes, no
// duplicates.
func (r *Ring) Validate() error {
	if len(r.Order) < 2 {
		return fmt.Errorf("ring %d: needs at least 2 nodes, has %d", r.ID, len(r.Order))
	}
	seen := make(map[netlist.NodeID]bool, len(r.Order))
	for _, id := range r.Order {
		if seen[id] {
			return fmt.Errorf("ring %d: node %d appears twice", r.ID, id)
		}
		seen[id] = true
	}
	return nil
}

// Len returns the number of nodes (and segments) on the ring.
func (r *Ring) Len() int { return len(r.Order) }

// Index returns the position of node id in the cycle, or -1.
func (r *Ring) Index(id netlist.NodeID) int {
	for i, n := range r.Order {
		if n == id {
			return i
		}
	}
	return -1
}

// Contains reports whether node id lies on the ring.
func (r *Ring) Contains(id netlist.NodeID) bool { return r.Index(id) >= 0 }

// Reversed returns a copy of the ring traversed in the opposite direction.
// Reversing flips which arc each signal path occupies.
func (r *Ring) Reversed() *Ring {
	rev := &Ring{ID: r.ID, Kind: r.Kind, Level: r.Level, Order: make([]netlist.NodeID, len(r.Order))}
	for i, id := range r.Order {
		rev.Order[len(r.Order)-1-i] = id
	}
	return rev
}

// SegmentEnds returns the (from, to) nodes of segment i.
func (r *Ring) SegmentEnds(i int) (from, to netlist.NodeID) {
	return r.Order[i], r.Order[(i+1)%len(r.Order)]
}

// SegmentLengths returns the length of each waveguide segment, taking
// segment i as the Manhattan distance between its end nodes (waveguides are
// routed rectilinearly, so this is the minimum physical length; the layout
// engine realises exactly these lengths with L-shaped routes).
func (r *Ring) SegmentLengths(app *netlist.Application) []float64 {
	lens := make([]float64, len(r.Order))
	for i := range r.Order {
		from, to := r.SegmentEnds(i)
		lens[i] = app.Pos(from).Manhattan(app.Pos(to))
	}
	return lens
}

// Perimeter returns the total waveguide length of the ring.
func (r *Ring) Perimeter(app *netlist.Application) float64 {
	var total float64
	for _, l := range r.SegmentLengths(app) {
		total += l
	}
	return total
}

// Arc returns the segment indices traversed by a signal from src to dst in
// ring direction. It returns an error if either node is off-ring or
// src == dst.
func (r *Ring) Arc(src, dst netlist.NodeID) ([]int, error) {
	si, di := r.Index(src), r.Index(dst)
	if si < 0 || di < 0 {
		return nil, fmt.Errorf("ring %d: arc %d->%d: node not on ring", r.ID, src, dst)
	}
	if si == di {
		return nil, fmt.Errorf("ring %d: arc %d->%d: zero-length arc", r.ID, src, dst)
	}
	n := len(r.Order)
	var segs []int
	for i := si; i != di; i = (i + 1) % n {
		segs = append(segs, i)
	}
	return segs, nil
}

// PathLength returns the waveguide length travelled by a signal from src to
// dst.
func (r *Ring) PathLength(app *netlist.Application, src, dst netlist.NodeID) (float64, error) {
	segs, err := r.Arc(src, dst)
	if err != nil {
		return 0, err
	}
	lens := r.SegmentLengths(app)
	var total float64
	for _, s := range segs {
		total += lens[s]
	}
	return total, nil
}

// String renders the ring as "ring 0 (intra): 1 -> 3 -> 5".
func (r *Ring) String() string {
	s := fmt.Sprintf("ring %d (%s):", r.ID, r.Kind)
	for i, id := range r.Order {
		if i > 0 {
			s += " ->"
		}
		s += fmt.Sprintf(" %d", id)
	}
	return s
}

// Path is a reserved signal path: one message routed on one ring.
type Path struct {
	Msg    netlist.Message
	RingID int
	// Segs are the ring-segment indices the signal traverses, in order.
	Segs []int
	// Length is the waveguide length travelled in millimetres.
	Length float64
	// NodesPassed is the number of intermediate nodes the signal passes
	// (excluding src and dst). At each passed node the signal runs the
	// gauntlet of that node's off-resonance MRRs (through loss).
	NodesPassed int
}

// Route reserves msg on ring r and returns the resulting path.
func Route(app *netlist.Application, r *Ring, msg netlist.Message) (Path, error) {
	segs, err := r.Arc(msg.Src, msg.Dst)
	if err != nil {
		return Path{}, err
	}
	lens := r.SegmentLengths(app)
	var total float64
	for _, s := range segs {
		total += lens[s]
	}
	return Path{
		Msg:         msg,
		RingID:      r.ID,
		Segs:        segs,
		Length:      total,
		NodesPassed: len(segs) - 1,
	}, nil
}

// Conflicts reports whether two paths must use different wavelengths:
// they ride the same ring and their arcs share at least one segment.
func Conflicts(a, b Path) bool {
	if a.RingID != b.RingID {
		return false
	}
	set := make(map[int]bool, len(a.Segs))
	for _, s := range a.Segs {
		set[s] = true
	}
	for _, s := range b.Segs {
		if set[s] {
			return true
		}
	}
	return false
}

// ConflictGraph is the wavelength-conflict graph over a set of paths:
// vertex i is paths[i], an edge joins paths that overlap on a ring.
type ConflictGraph struct {
	Paths []Path
	Adj   [][]int // Adj[i] lists js (sorted) in conflict with i
}

// BuildConflictGraph computes the conflict graph of the given paths.
//
// Two paths conflict exactly when they share a (ring, segment), so the
// paths are first bucketed by (ring, segment) with a counting sort; each
// bucket lists its paths in ascending index order. A path's neighbours are
// the union of its segments' buckets, deduplicated with a per-path stamp
// and sorted. The work is proportional to the summed bucket sizes the
// paths visit rather than to all n² pairs, and the adjacency lists share
// one backing array.
func BuildConflictGraph(paths []Path) *ConflictGraph {
	g := &ConflictGraph{Paths: paths, Adj: make([][]int, len(paths))}
	// Each ring gets a contiguous range of buckets covering the segment
	// indices its paths use.
	type segRange struct{ base, lo, hi int }
	rings := make(map[int]*segRange)
	for _, p := range paths {
		for _, s := range p.Segs {
			r := rings[p.RingID]
			if r == nil {
				rings[p.RingID] = &segRange{lo: s, hi: s}
				continue
			}
			r.lo, r.hi = min(r.lo, s), max(r.hi, s)
		}
	}
	nb := 0
	for _, r := range rings {
		r.base = nb
		nb += r.hi - r.lo + 1
	}
	// Path i's segment s falls in bucket off[i] + s.
	off := make([]int, len(paths))
	for i, p := range paths {
		if r := rings[p.RingID]; r != nil {
			off[i] = r.base - r.lo
		}
	}
	start := make([]int, nb+1)
	for i := range paths {
		for _, s := range paths[i].Segs {
			start[off[i]+s+1]++
		}
	}
	for b := 0; b < nb; b++ {
		start[b+1] += start[b]
	}
	members := make([]int, start[nb])
	fill := slices.Clone(start[:nb])
	for i := range paths {
		for _, s := range paths[i].Segs {
			b := off[i] + s
			members[fill[b]] = i
			fill[b]++
		}
	}

	stamp := make([]int, len(paths))
	var buf []int
	ends := make([]int, len(paths))
	for i := range paths {
		stamp[i] = i + 1 // a path never conflicts with itself
		from := len(buf)
		for _, s := range paths[i].Segs {
			b := off[i] + s
			for _, j := range members[start[b]:start[b+1]] {
				if stamp[j] != i+1 {
					stamp[j] = i + 1
					buf = append(buf, j)
				}
			}
		}
		slices.Sort(buf[from:])
		ends[i] = len(buf)
	}
	from := 0
	for i, end := range ends {
		if end > from {
			g.Adj[i] = buf[from:end:end]
		}
		from = end
	}
	return g
}
