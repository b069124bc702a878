package cluster

import (
	"math"
	"math/bits"
	"slices"

	"sring/internal/netlist"
)

// Incremental absorption. The paper evaluates every candidate vertex at
// every ring position by rescanning the whole trial ring with
// ringOrderLongest — O(len + msgs) per trial, O(n·(n+m)) per absorption
// step. Inserting a vertex c into segment pos only changes path lengths in
// a structured way, though: the segment (a, b) = (order[pos], order[pos+1])
// grows by delta = d(a,c) + d(c,b) − d(a,b), a message's forward path grows
// by delta exactly when its arc covers segment pos (its reverse path grows
// by delta exactly when it does not), and the only genuinely new paths are
// the candidate's own messages. absorbScratch precomputes, once per
// absorption step, per-segment maxima over the member messages; each
// (candidate, position) trial is then evaluated in O(deg(c)) instead of
// O(n + m).
//
// The incremental value is mathematically exact but can differ from the
// full rescan in the last floating-point bits (the prefix sums associate
// differently). To keep the selected absorptions bit-identical to the
// paper algorithm — the golden Table I tests pin its exact output — the
// incremental value is used only to prune: every trial's incremental value
// is computed first, and only trials within absorbEps of the smallest one
// (and of lmax) are re-evaluated with the exact rescan before they can win.
// This relies on the two values agreeing within absorbEps, which holds on
// a validated application: its positions are distinct, so no ring segment
// is shorter than geom.Eps and the values differ only by rounding.
const absorbEps = 1e-9

// segMax is one segment's pair of maxima: over the forward and over the
// reverse path lengths of a set of member messages.
type segMax struct{ fwd, rev float64 }

// absorbScratch holds the per-segment aggregates for the current ring order
// and its member-message set.
type absorbScratch struct {
	app    *netlist.Application
	order  []netlist.NodeID
	prefix []float64
	perim  float64
	// Per segment j (between order[j] and order[j+1]), on[j] holds the
	// maxima over the messages whose forward arc covers j and off[j] over
	// those whose arc misses it. A trial inserting into j grows on[j].fwd
	// and off[j].rev by delta and leaves on[j].rev and off[j].fwd alone.
	// The growing maxima start at -Inf (an empty max must not contribute
	// after +delta); the fixed ones start at 0 to match ringOrderLongest's
	// zero floor over an empty message set. Level 0 of each table is the
	// per-segment answer; levels k >= 1 are the blocks of a reversed
	// sparse table (see raise).
	on, off []segMax
	dist    []float64 // appendInsertions' distances from the candidate
}

// resize reslices buf to length n, growing its capacity amortised (as
// append does) when it is too short. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// raise lifts the maxima of every segment in [l, r] to at least v: t is a
// reversed sparse table over n segments, where level k cell i stands for
// the block [i, i+2^k). The range is covered by its two (possibly equal)
// blocks of the largest fitting length, each raised in O(1); settle pushes
// the blocks down afterwards.
func raise(t []segMax, n, l, r int, v segMax) {
	k := bits.Len(uint(r-l+1)) - 1
	t[k*n+l].raise(v)
	t[k*n+r+1-1<<k].raise(v)
}

// raise lifts both of m's maxima to at least v's.
func (m *segMax) raise(v segMax) {
	if v.fwd > m.fwd {
		m.fwd = v.fwd
	}
	if v.rev > m.rev {
		m.rev = v.rev
	}
}

// settle folds each level of t into the one below, top down, leaving level
// 0 with every segment's maxima. max is exact and order-free, so the result
// equals raising each segment of each range one at a time.
func settle(t []segMax, n, levels int) {
	for k := levels - 1; k >= 1; k-- {
		half := 1 << (k - 1)
		hi, lo := t[k*n:k*n+n+1-2*half], t[(k-1)*n:k*n]
		for i, v := range hi {
			lo[i].raise(v)
			lo[i+half].raise(v)
		}
	}
}

// raiseArc raises the cyclic segment range [from, to) (mod n), which is
// never empty or the whole ring.
func raiseArc(t []segMax, n, from, to int, v segMax) {
	if from < to {
		raise(t, n, from, to-1, v)
		return
	}
	raise(t, n, from, n-1, v)
	if to > 0 {
		raise(t, n, 0, to-1, v)
	}
}

// prepareAbsorb rebuilds sc's aggregates, reusing its buffers, for order
// carrying msgs. rs must hold order's positions. Each message raises its
// arc's segments in on and the complementary segments in off — at most two
// linear ranges each, never longer than n-1 — so the build is
// O(n log n + m).
func prepareAbsorb(sc *absorbScratch, app *netlist.Application, order []netlist.NodeID, msgs []netlist.Message, rs *ringScratch) {
	n := len(order)
	levels := bits.Len(uint(n - 1))
	sc.app = app
	sc.order = order
	sc.prefix = resize(sc.prefix, n+1)
	sc.on = resize(sc.on, levels*n)
	sc.off = resize(sc.off, levels*n)
	sc.prefix[0] = 0
	for i := 0; i < n; i++ {
		next := order[(i+1)%n]
		sc.prefix[i+1] = sc.prefix[i] + app.Pos(order[i]).Manhattan(app.Pos(next))
	}
	sc.perim = sc.prefix[n]
	on, off, prefix, perim := sc.on, sc.off, sc.prefix, sc.perim
	for j := range on {
		on[j] = segMax{fwd: math.Inf(-1), rev: 0}
		off[j] = segMax{fwd: 0, rev: math.Inf(-1)}
	}
	for _, m := range msgs {
		si := rs.pos[m.Src]
		di := rs.pos[m.Dst]
		fwd := prefix[di] - prefix[si]
		if fwd < 0 {
			fwd += perim
		}
		v := segMax{fwd: fwd, rev: perim - fwd}
		// The forward arc covers segments si, si+1, ..., di-1 (mod n).
		raiseArc(on, n, si, di, v)
		raiseArc(off, n, di, si, v)
	}
	settle(on, n, levels)
	settle(off, n, levels)
}

// wrap maps a prefix-sum difference onto [0, perim).
func (sc *absorbScratch) wrap(v float64) float64 {
	if v < 0 {
		return v + sc.perim
	}
	return v
}

// appendInsertions appends to vals, for every position pos, the longest
// signal path (minimised over the two traversal directions) of the ring
// obtained by inserting candidate c into segment pos, where cTo / cFrom
// hold the ring positions of the members c sends to / receives from. Each
// value is exact up to floating-point association order. One row of
// distances from c serves both new segments of every position.
func (sc *absorbScratch) appendInsertions(vals []float64, c netlist.NodeID, cTo, cFrom []int) []float64 {
	n := len(sc.order)
	cPos := sc.app.Pos(c)
	dist := resize(sc.dist, n)
	sc.dist = dist
	for i, id := range sc.order {
		dist[i] = cPos.Manhattan(sc.app.Pos(id))
	}
	prefix, perim := sc.prefix, sc.perim
	for pos := 0; pos < n; pos++ {
		bi := pos + 1
		if bi == n {
			bi = 0
		}
		dac, dcb := dist[pos], dist[bi]
		delta := dac + dcb - (prefix[pos+1] - prefix[pos])
		newPerim := perim + delta

		on, off := sc.on[pos], sc.off[pos]
		lf := on.fwd + delta
		if off.fwd > lf {
			lf = off.fwd
		}
		lr := off.rev + delta
		if on.rev > lr {
			lr = on.rev
		}
		for _, xi := range cTo { // c -> member at position xi
			f := dcb + sc.wrap(prefix[xi]-prefix[bi])
			if f > lf {
				lf = f
			}
			if r := newPerim - f; r > lr {
				lr = r
			}
		}
		for _, xi := range cFrom { // member at position xi -> c
			f := sc.wrap(prefix[pos]-prefix[xi]) + dac
			if f > lf {
				lf = f
			}
			if r := newPerim - f; r > lr {
				lr = r
			}
		}
		if lr < lf {
			lf = lr
		}
		vals = append(vals, lf)
	}
	return vals
}

// farthest returns the Manhattan distance from c to its farthest member
// partner, a lower bound on every trial of c: each of c's paths, in either
// direction around any ring, is at least as long as the direct distance.
func farthest(app *netlist.Application, c netlist.NodeID, order []netlist.NodeID, cTo, cFrom []int) float64 {
	cPos := app.Pos(c)
	var d float64
	for _, list := range [2][]int{cTo, cFrom} {
		for _, xi := range list {
			d = max(d, cPos.Manhattan(app.Pos(order[xi])))
		}
	}
	return d
}

// bestAbsorption tries to absorb each candidate at each ring position
// (replacing segment (order[i], order[i+1]) with two segments through the
// candidate) and returns the valid absorption minimising the longest signal
// path, the first such trial in (candidate, position) order. The sub-ring's
// members are exactly the nodes of order, and no candidate is a member.
// candidates maps each candidate to a lower bound on its trials, -Inf when
// none is known; the step stores there the smallest incremental value of
// every candidate it evaluates.
//
// Trials are evaluated min-first. A candidate's key is the larger of its
// carried bound and its distance to its farthest member partner. Pass 1
// evaluates the candidate with the smallest key first, then the rest in ID
// order, writing every incremental value into a buffer, with m the running
// minimum; it skips a candidate whose key exceeds
// min(lmax, m+absorbEps)+2·absorbEps, since none of its trials can be
// valid and at most the first exact minimum L*. Pass 2 re-scans exactly,
// in (candidate, position) order under the paper's l <= lmax && l < longest
// rule, only the trials at or below min(lmax, m+absorbEps)+absorbEps, m now
// the smallest value. L* lies under that threshold: its incremental value
// is within absorbEps of L* <= lmax, and L* is at most m+absorbEps when m's
// trial is valid, below lmax otherwise. So the selection is bit-identical
// to evaluating every trial with ringOrderLongest.
//
// A carried bound stays valid while the ring grows: inserting a vertex
// never shortens a path (Manhattan distance obeys the triangle
// inequality), and a new member only adds paths, so a candidate's trials
// never fall from one step to the next. Up to rounding, a carried value
// sits at most 2r above the current incremental value, r ≈ 1e-11, far
// inside the 2·absorbEps slack (DESIGN.md §14.2 spells the argument out).
//
// All working buffers live in rs, whose position table is left all -1 on
// return. The returned order is a buffer the caller owns; handing the order
// it replaces back through rs.recycle lets a warmed step allocate nothing.
func bestAbsorption(app *netlist.Application, order []netlist.NodeID,
	candidates map[netlist.NodeID]float64, lmax float64, rs *ringScratch) (newOrder []netlist.NodeID, longest float64, cand netlist.NodeID, ok bool) {

	cands := rs.cands[:0]
	for c := range candidates {
		cands = append(cands, c)
	}
	slices.Sort(cands)
	rs.cands = cands

	// One scan over the messages collects the member messages and, per
	// candidate k, the ring positions of its messages to (cTo[k]) and from
	// (cFrom[k]) members. During the scan the position table also marks
	// candidate k as -2-k.
	rs.place(order)
	for k, c := range cands {
		rs.pos[c] = -2 - k
	}
	rs.cTo = resize(rs.cTo, len(cands))
	rs.cFrom = resize(rs.cFrom, len(cands))
	for k := range cands {
		rs.cTo[k] = rs.cTo[k][:0]
		rs.cFrom[k] = rs.cFrom[k][:0]
	}
	msgs := rs.msgs[:0]
	for _, m := range app.Messages {
		ps, pd := rs.pos[m.Src], rs.pos[m.Dst]
		switch {
		case ps >= 0 && pd >= 0:
			msgs = append(msgs, m)
		case ps <= -2 && pd >= 0:
			rs.cTo[-2-ps] = append(rs.cTo[-2-ps], pd)
		case ps >= 0 && pd <= -2:
			rs.cFrom[-2-pd] = append(rs.cFrom[-2-pd], ps)
		}
	}
	for _, c := range cands {
		rs.pos[c] = -1
	}
	sc := &rs.abs
	prepareAbsorb(sc, app, order, msgs, rs)
	rs.unplace(order)

	// Pass 1: the incremental value of every trial of every unscreened
	// candidate k, row by row in vals from row[k] (-1 when screened).
	keys := resize(rs.keys, len(cands))
	first := 0
	for k, c := range cands {
		keys[k] = max(farthest(app, c, order, rs.cTo[k], rs.cFrom[k]), candidates[c])
		if keys[k] < keys[first] {
			first = k
		}
	}
	row := resize(rs.row, len(cands))
	rs.keys, rs.row, rs.vals = keys, row, rs.vals[:0]
	m := math.Inf(1)
	if len(cands) > 0 {
		row[first] = 0
		m = rs.evalRow(candidates, first)
	}
	for k := range cands {
		if k == first {
			continue
		}
		if keys[k] > math.Min(lmax, m+absorbEps)+2*absorbEps {
			row[k] = -1
			continue
		}
		row[k] = len(rs.vals)
		m = min(m, rs.evalRow(candidates, k))
	}
	vals := rs.vals
	threshold := math.Min(lmax, m+absorbEps) + absorbEps

	// Pass 2: exact re-checks. Extending the member messages by c's own
	// messages to and from members gives the messages within
	// members ∪ {c}. win and trial swap on every win, so the losing
	// buffer is reused.
	n := len(order)
	nMember := len(msgs)
	win, trial := rs.spare[:0], rs.trial
	longest = math.Inf(1)
	for k, r := range row {
		if r < 0 {
			continue
		}
		c, cTo, cFrom := cands[k], rs.cTo[k], rs.cFrom[k]
		extended := false
		for pos, v := range vals[r : r+n] {
			if v > threshold {
				continue
			}
			if !extended {
				msgs = msgs[:nMember]
				for _, xi := range cTo {
					msgs = append(msgs, netlist.Message{Src: c, Dst: order[xi]})
				}
				for _, xi := range cFrom {
					msgs = append(msgs, netlist.Message{Src: order[xi], Dst: c})
				}
				extended = true
			}
			trial = append(slices.Grow(trial[:0], n+1), order[:pos+1]...)
			trial = append(trial, c)
			trial = append(trial, order[pos+1:]...)
			l, _ := ringOrderLongest(app, trial, msgs, rs)
			if l <= lmax && l < longest {
				longest = l
				win, trial = trial, win
				cand = c
				ok = true
			}
		}
	}
	rs.msgs = msgs
	rs.trial = trial
	if !ok {
		rs.spare = win
		return nil, longest, cand, false
	}
	rs.spare = nil
	return win, longest, cand, true
}

// evalRow appends the incremental values of candidate k's trials, one per
// ring position, to rs.vals, carries their minimum in candidates as k's
// bound and returns it.
func (rs *ringScratch) evalRow(candidates map[netlist.NodeID]float64, k int) float64 {
	c, start := rs.cands[k], len(rs.vals)
	rs.vals = rs.abs.appendInsertions(rs.vals, c, rs.cTo[k], rs.cFrom[k])
	low := math.Inf(1)
	for _, v := range rs.vals[start:] {
		low = min(low, v)
	}
	rs.trials += int64(len(rs.vals) - start)
	candidates[c] = low
	return low
}
