package cluster

import (
	"math"
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
// incremental value is used only to prune: trials whose incremental value
// exceeds the current bound by more than absorbEps are skipped, and every
// surviving trial is re-evaluated with the exact rescan before it can win.
const absorbEps = 1e-9

// absorbScratch holds the per-segment aggregates for the current ring order
// and its member-message set.
type absorbScratch struct {
	app    *netlist.Application
	order  []netlist.NodeID
	prefix []float64
	perim  float64
	// Per segment j (between order[j] and order[j+1]):
	//   coverFwd[j]: max forward length over messages whose arc covers j
	//                (these grow by delta when inserting into j);
	//   freeFwd[j]:  max forward length over messages missing j (unchanged);
	//   coverRev[j]: max reverse length over messages missing j (grow by
	//                delta in the reversed traversal);
	//   freeRev[j]:  max reverse length over messages covering j.
	// Cover maxima start at -Inf (empty max must not contribute after
	// +delta); free maxima start at 0 to match ringOrderLongest's zero
	// floor over an empty message set.
	coverFwd, freeFwd []float64
	coverRev, freeRev []float64
}

// resize reslices buf to length n, growing its capacity amortised (as
// append does) when it is too short. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// prepareAbsorb rebuilds sc's aggregates, reusing its buffers, for order
// carrying msgs. rs must hold order's positions.
func prepareAbsorb(sc *absorbScratch, app *netlist.Application, order []netlist.NodeID, msgs []netlist.Message, rs *ringScratch) {
	n := len(order)
	sc.app = app
	sc.order = order
	sc.prefix = resize(sc.prefix, n+1)
	sc.coverFwd = resize(sc.coverFwd, n)
	sc.freeFwd = resize(sc.freeFwd, n)
	sc.coverRev = resize(sc.coverRev, n)
	sc.freeRev = resize(sc.freeRev, n)
	sc.prefix[0] = 0
	for i := 0; i < n; i++ {
		next := order[(i+1)%n]
		sc.prefix[i+1] = sc.prefix[i] + app.Pos(order[i]).Manhattan(app.Pos(next))
	}
	sc.perim = sc.prefix[n]
	for j := 0; j < n; j++ {
		sc.coverFwd[j] = math.Inf(-1)
		sc.coverRev[j] = math.Inf(-1)
		sc.freeFwd[j] = 0
		sc.freeRev[j] = 0
	}
	for _, m := range msgs {
		si := rs.pos[m.Src]
		di := rs.pos[m.Dst]
		fwd := sc.prefix[di] - sc.prefix[si]
		if fwd < 0 {
			fwd += sc.perim
		}
		rev := sc.perim - fwd
		// The forward arc covers the span segments si, si+1, ... (mod n).
		span := di - si
		if span < 0 {
			span += n
		}
		for k := 0; k < n; k++ {
			j := si + k
			if j >= n {
				j -= n
			}
			if k < span {
				if fwd > sc.coverFwd[j] {
					sc.coverFwd[j] = fwd
				}
				if rev > sc.freeRev[j] {
					sc.freeRev[j] = rev
				}
			} else {
				if fwd > sc.freeFwd[j] {
					sc.freeFwd[j] = fwd
				}
				if rev > sc.coverRev[j] {
					sc.coverRev[j] = rev
				}
			}
		}
	}
}

// wrap maps a prefix-sum difference onto [0, perim).
func (sc *absorbScratch) wrap(v float64) float64 {
	if v < 0 {
		return v + sc.perim
	}
	return v
}

// insertionLongest returns the longest signal path (minimised over the two
// traversal directions) of the ring obtained by inserting candidate c into
// segment pos, where cTo / cFrom hold the ring positions of the members c
// sends to / receives from. Exact up to floating-point association order.
func (sc *absorbScratch) insertionLongest(c netlist.NodeID, pos int, cTo, cFrom []int) float64 {
	n := len(sc.order)
	a := sc.order[pos]
	b := sc.order[(pos+1)%n]
	cPos := sc.app.Pos(c)
	dac := sc.app.Pos(a).Manhattan(cPos)
	dcb := cPos.Manhattan(sc.app.Pos(b))
	delta := dac + dcb - (sc.prefix[pos+1] - sc.prefix[pos])
	newPerim := sc.perim + delta

	lf := sc.coverFwd[pos] + delta
	if sc.freeFwd[pos] > lf {
		lf = sc.freeFwd[pos]
	}
	lr := sc.coverRev[pos] + delta
	if sc.freeRev[pos] > lr {
		lr = sc.freeRev[pos]
	}
	bi := (pos + 1) % n
	for _, xi := range cTo { // c -> member at position xi
		f := dcb + sc.wrap(sc.prefix[xi]-sc.prefix[bi])
		if f > lf {
			lf = f
		}
		if r := newPerim - f; r > lr {
			lr = r
		}
	}
	for _, xi := range cFrom { // member at position xi -> c
		f := sc.wrap(sc.prefix[pos]-sc.prefix[xi]) + dac
		if f > lf {
			lf = f
		}
		if r := newPerim - f; r > lr {
			lr = r
		}
	}
	if lr < lf {
		return lr
	}
	return lf
}

// bestAbsorption tries to absorb each candidate at each ring position
// (replacing segment (order[i], order[i+1]) with two segments through the
// candidate) and returns the valid absorption minimising the longest signal
// path. The sub-ring's members are exactly the nodes of order, and no
// candidate is a member. Trials are screened with the incremental evaluator
// and only survivors are re-scanned exactly, so the selection is
// bit-identical to evaluating every trial with ringOrderLongest. All
// working buffers live in rs, the growth's scratch, whose position table is
// left all -1 on return.
func bestAbsorption(app *netlist.Application, order []netlist.NodeID,
	candidates map[netlist.NodeID]bool, lmax float64, rs *ringScratch) (newOrder []netlist.NodeID, longest float64, cand netlist.NodeID, ok bool) {

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

	// Extending the member messages by c's own messages to and from
	// members gives the messages within members ∪ {c}. trial is a losing
	// trial's buffer, reused; winners escape to the caller.
	nMember := len(msgs)
	trial := rs.trial

	longest = math.Inf(1)
	for k, c := range cands {
		cTo, cFrom := rs.cTo[k], rs.cFrom[k]
		extended := false
		for pos := 0; pos < len(order); pos++ {
			bound := lmax
			if longest < bound {
				bound = longest
			}
			if sc.insertionLongest(c, pos, cTo, cFrom) > bound+absorbEps {
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
			trial = append(slices.Grow(trial[:0], len(order)+1), order[:pos+1]...)
			trial = append(trial, c)
			trial = append(trial, order[pos+1:]...)
			l, _ := ringOrderLongest(app, trial, msgs, rs)
			if l <= lmax && l < longest {
				longest = l
				newOrder, trial = trial, newOrder
				cand = c
				ok = true
			}
		}
	}
	rs.msgs = msgs
	rs.trial = trial
	return newOrder, longest, cand, ok
}
