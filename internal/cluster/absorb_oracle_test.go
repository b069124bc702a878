package cluster

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"sring/internal/geom"
	"sring/internal/netlist"
	"sring/internal/obs"
)

// The reference absorption: the per-segment scan, the bound-as-you-go
// screen and the growLevel loop that regrows every trial in every round,
// kept in their earlier form (with their own buffers) so the tests below
// can check the production step and construction against them bit for bit.

// refAbsorbScratch holds the reference per-segment aggregates.
type refAbsorbScratch struct {
	app               *netlist.Application
	order             []netlist.NodeID
	prefix            []float64
	perim             float64
	coverFwd, freeFwd []float64
	coverRev, freeRev []float64
}

// refPrepareAbsorb builds the aggregates by walking every message across
// every segment, O(m·n).
func refPrepareAbsorb(sc *refAbsorbScratch, app *netlist.Application, order []netlist.NodeID, msgs []netlist.Message, pos []int) {
	n := len(order)
	sc.app = app
	sc.order = order
	sc.prefix = make([]float64, n+1)
	sc.coverFwd = make([]float64, n)
	sc.freeFwd = make([]float64, n)
	sc.coverRev = make([]float64, n)
	sc.freeRev = make([]float64, n)
	for i := 0; i < n; i++ {
		next := order[(i+1)%n]
		sc.prefix[i+1] = sc.prefix[i] + app.Pos(order[i]).Manhattan(app.Pos(next))
	}
	sc.perim = sc.prefix[n]
	for j := 0; j < n; j++ {
		sc.coverFwd[j] = math.Inf(-1)
		sc.coverRev[j] = math.Inf(-1)
	}
	for _, m := range msgs {
		si := pos[m.Src]
		di := pos[m.Dst]
		fwd := sc.prefix[di] - sc.prefix[si]
		if fwd < 0 {
			fwd += sc.perim
		}
		rev := sc.perim - fwd
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

func (sc *refAbsorbScratch) wrap(v float64) float64 {
	if v < 0 {
		return v + sc.perim
	}
	return v
}

func (sc *refAbsorbScratch) insertionLongest(c netlist.NodeID, pos int, cTo, cFrom []int) float64 {
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
	for _, xi := range cTo {
		f := dcb + sc.wrap(sc.prefix[xi]-sc.prefix[bi])
		if f > lf {
			lf = f
		}
		if r := newPerim - f; r > lr {
			lr = r
		}
	}
	for _, xi := range cFrom {
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

// refBestAbsorption screens each trial against the running bound
// min(lmax, longest) + absorbEps and rescans every survivor exactly.
func refBestAbsorption(app *netlist.Application, order []netlist.NodeID,
	candidates map[netlist.NodeID]float64, lmax float64, rs *ringScratch) (newOrder []netlist.NodeID, longest float64, cand netlist.NodeID, ok bool) {

	var cands []netlist.NodeID
	for c := range candidates {
		cands = append(cands, c)
	}
	slices.Sort(cands)

	rs.place(order)
	for k, c := range cands {
		rs.pos[c] = -2 - k
	}
	cTo := make([][]int, len(cands))
	cFrom := make([][]int, len(cands))
	var msgs []netlist.Message
	for _, m := range app.Messages {
		ps, pd := rs.pos[m.Src], rs.pos[m.Dst]
		switch {
		case ps >= 0 && pd >= 0:
			msgs = append(msgs, m)
		case ps <= -2 && pd >= 0:
			cTo[-2-ps] = append(cTo[-2-ps], pd)
		case ps >= 0 && pd <= -2:
			cFrom[-2-pd] = append(cFrom[-2-pd], ps)
		}
	}
	for _, c := range cands {
		rs.pos[c] = -1
	}
	sc := &refAbsorbScratch{}
	refPrepareAbsorb(sc, app, order, msgs, rs.pos)
	rs.unplace(order)

	nMember := len(msgs)
	longest = math.Inf(1)
	for k, c := range cands {
		extended := false
		for pos := 0; pos < len(order); pos++ {
			bound := lmax
			if longest < bound {
				bound = longest
			}
			if sc.insertionLongest(c, pos, cTo[k], cFrom[k]) > bound+absorbEps {
				continue
			}
			if !extended {
				msgs = msgs[:nMember]
				for _, xi := range cTo[k] {
					msgs = append(msgs, netlist.Message{Src: c, Dst: order[xi]})
				}
				for _, xi := range cFrom[k] {
					msgs = append(msgs, netlist.Message{Src: order[xi], Dst: c})
				}
				extended = true
			}
			trial := append(slices.Clone(order[:pos+1]), c)
			trial = append(trial, order[pos+1:]...)
			l, _ := ringOrderLongest(app, trial, msgs, rs)
			if l <= lmax && l < longest {
				longest = l
				newOrder = trial
				cand = c
				ok = true
			}
		}
	}
	return newOrder, longest, cand, ok
}

// growCluster grows an intra-cluster sub-ring from the initial vertex under
// lmax, absorbing communication-adjacent available vertices, with no bound
// to abandon it by. A vertex with no available neighbours yields a
// singleton (order nil).
func growCluster(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID,
	initial netlist.NodeID, avail map[netlist.NodeID]bool, lmax float64, absorb *obs.Counter, rs *ringScratch) grown {

	g := startGrowth(&space{app: app, adj: adj, avail: avail}, initial, rs)
	if g == nil || g.longest > lmax {
		return grown{members: map[netlist.NodeID]bool{initial: true}}
	}
	g.grow(lmax, math.Inf(1), absorb, rs)
	return grown{order: g.order, members: g.members, longest: g.longest}
}

// refGrowLevel regrows every trial vertex in every round, the first one
// included, to completion: it ignores the shared round-1 growths and keeps
// the best growth in trial order.
func refGrowLevel(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID,
	nodes map[netlist.NodeID]bool, lmax float64, maxTrials int, _ []grown, w *work, rs *ringScratch) []grown {

	avail := make(map[netlist.NodeID]bool, len(nodes))
	for id := range nodes {
		avail[id] = true
	}
	var out []grown
	for len(avail) > 0 {
		ids := make([]netlist.NodeID, 0, len(avail))
		for id := range avail {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var best grown
		haveBest := false
		for _, v := range sampleTrials(ids, maxTrials) {
			g := growCluster(app, adj, v, avail, lmax, &w.absorbs, rs)
			if !haveBest || better(g, best) {
				best = g
				haveBest = true
			}
		}
		out = append(out, best)
		for m := range best.members {
			delete(avail, m)
		}
	}
	return out
}

// TestGrowLevelTieKeepsTrialOrder: a growth from u and one from its
// partner v can end with the same members and longest path in different
// ring orders. Here round 1, read finished from the shared trajectories as
// at level 0, keeps {w, x}; that invalidates u's growth {u, w} but not v's
// growth {v, u}, so round 2 ranks v's reused growth first and then grows
// u's afresh into the exact tie [u v]. The sequential scan keeps the
// earlier trial, u's, and so must the bounded growLevel.
func TestGrowLevelTieKeepsTrialOrder(t *testing.T) {
	const u, v, w, x = 0, 1, 2, 3
	app := &netlist.Application{
		Name: "tie",
		Nodes: []netlist.Node{
			{ID: u, Pos: geom.Pt(0, 0)},
			{ID: v, Pos: geom.Pt(0, 1.1)},
			{ID: w, Pos: geom.Pt(1, 0)},
			{ID: x, Pos: geom.Pt(1.5, 0)},
		},
		Messages: []netlist.Message{
			{Src: u, Dst: w, Bandwidth: 1}, {Src: w, Dst: u, Bandwidth: 1},
			{Src: w, Dst: x, Bandwidth: 1}, {Src: x, Dst: w, Bandwidth: 1},
			{Src: u, Dst: v, Bandwidth: 1}, {Src: v, Dst: u, Bandwidth: 1},
		},
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	adj, rs := app.Adjacency(), newRingScratch(app)
	nodes := map[netlist.NodeID]bool{u: true, v: true, w: true, x: true}
	// Every three-node ring a growth can reach here ({u, v, w} or
	// {u, w, x}) has a path of at least 2.5, so under 1.2 each growth stays
	// a pair.
	const lmax = 1.2
	fromU := growCluster(app, adj, u, map[netlist.NodeID]bool{u: true, v: true}, lmax, nil, rs)
	fromV := growCluster(app, adj, v, nodes, lmax, nil, rs)
	if !slices.Equal(fromU.order, []netlist.NodeID{u, v}) || !slices.Equal(fromV.order, []netlist.NodeID{v, u}) ||
		better(fromU, fromV) || better(fromV, fromU) {
		t.Fatalf("no tie: round-2 growth from u %v (longest %v), reused growth from v %v (longest %v)",
			fromU.order, fromU.longest, fromV.order, fromV.longest)
	}
	r := newRoundOne(app, adj, 0)
	first := r.growths(lmax, &work{}, rs)
	got := growLevel(app, adj, nodes, lmax, 0, first, &work{}, rs)
	want := refGrowLevel(app, adj, nodes, lmax, 0, nil, &work{}, newRingScratch(app))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("growLevel %+v, reference %+v", got, want)
	}
	if len(got) != 2 || !slices.Equal(got[1].order, []netlist.NodeID{u, v}) {
		t.Fatalf("round 2 kept %+v, want u's growth [%d %d]", got, u, v)
	}
}

// refInterRing builds the inter ring by growing every trial vertex under
// lmax to completion or failure, unbounded and unshared, keeping the valid
// ring with the strictly shortest longest path in trial order.
func refInterRing(p *problem, interNodes map[netlist.NodeID]bool, lmax float64, w *work, rs *ringScratch) []netlist.NodeID {
	ids := make([]netlist.NodeID, 0, len(interNodes))
	for id := range interNodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) < 2 {
		return nil
	}
	interMsgs := make(map[netlist.NodeID][]netlist.NodeID) // adjacency in the inter graph
	for _, m := range p.app.Messages {
		if interNodes[m.Src] && interNodes[m.Dst] {
			interMsgs[m.Src] = append(interMsgs[m.Src], m.Dst)
			interMsgs[m.Dst] = append(interMsgs[m.Dst], m.Src)
		}
	}
	var bestOrder []netlist.NodeID
	bestLongest := math.Inf(1)
	for _, v := range sampleTrials(ids, p.maxTrials) {
		order, longest, ok := refGrowInter(p.app, interMsgs, v, ids, lmax, &w.absorbs, rs)
		if ok && longest < bestLongest {
			bestOrder, bestLongest = order, longest
		}
	}
	return bestOrder
}

// refGrowInter grows the inter ring from initial, absorbing adjacent inter
// nodes first and falling back to the remaining ones, until all inter nodes
// are on the ring or no valid absorption exists.
func refGrowInter(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID,
	initial netlist.NodeID, all []netlist.NodeID, lmax float64, absorb *obs.Counter, rs *ringScratch) ([]netlist.NodeID, float64, bool) {

	members := map[netlist.NodeID]bool{initial: true}
	remaining := make(map[netlist.NodeID]bool)
	for _, id := range all {
		if id != initial {
			remaining[id] = true
		}
	}
	// Nearest partner (adjacent preferred, else nearest remaining).
	pick := func(from []netlist.NodeID) (netlist.NodeID, bool) {
		var nearest netlist.NodeID = -1
		bestDist := math.Inf(1)
		for _, u := range from {
			if !remaining[u] {
				continue
			}
			d := app.Pos(initial).Manhattan(app.Pos(u))
			if d < bestDist || (d == bestDist && (nearest < 0 || u < nearest)) {
				nearest, bestDist = u, d
			}
		}
		return nearest, nearest >= 0
	}
	first, ok := pick(adj[initial])
	if !ok {
		first, ok = pick(all)
		if !ok {
			return nil, 0, false
		}
	}
	members[first] = true
	delete(remaining, first)
	order := []netlist.NodeID{initial, first}
	longest, _ := ringOrderLongest(app, order, messagesWithin(app, members), rs)
	if longest > lmax {
		return nil, 0, false
	}
	for len(remaining) > 0 {
		// Candidates: remaining nodes adjacent to a member; if none, all
		// remaining (the inter graph may be disconnected, but a single
		// ring must still carry everything).
		candidates := make(map[netlist.NodeID]float64)
		for m := range members {
			for _, u := range adj[m] {
				if remaining[u] {
					candidates[u] = math.Inf(-1)
				}
			}
		}
		if len(candidates) == 0 {
			for u := range remaining {
				candidates[u] = math.Inf(-1)
			}
		}
		order2, longest2, cand, ok := absorbStep(app, order, candidates, lmax, rs)
		if !ok {
			return nil, 0, false // stuck before absorbing everyone
		}
		order = order2
		longest = longest2
		members[cand] = true
		absorb.Add(1)
		delete(remaining, cand)
	}
	return order, longest, true
}

// randomRing builds an absorption instance on a valid application: n nodes
// at distinct points of a small palette grid (up to 42 of its 49), the
// first k of a random permutation on the ring, most of the rest
// candidates, and random messages. The palette's non-dyadic fractions make collinear nodes, equal
// distances and tied trials common, and make the incremental and exact
// values disagree in their last bits.
func randomRing(rng *rand.Rand) (*netlist.Application, []netlist.NodeID, map[netlist.NodeID]float64) {
	n := 3 + rng.Intn(12)
	if rng.Intn(4) == 0 { // a quarter of the rings run to 42 nodes
		n = 3 + rng.Intn(40)
	}
	k := 2 + rng.Intn(n-2)
	palette := []float64{0, 0.1, 0.3, 0.7, 1.1, 1.3, 2.9}
	app := &netlist.Application{Name: "absorb"}
	for i, cell := range rng.Perm(len(palette) * len(palette))[:n] {
		p := geom.Pt(palette[cell%len(palette)], palette[cell/len(palette)])
		app.Nodes = append(app.Nodes, netlist.Node{ID: netlist.NodeID(i), Pos: p})
	}
	seen := map[[2]netlist.NodeID]bool{}
	for want := 1 + rng.Intn(min(3*n, n*(n-1))); len(app.Messages) < want; {
		s, d := netlist.NodeID(rng.Intn(n)), netlist.NodeID(rng.Intn(n))
		if s == d || seen[[2]netlist.NodeID{s, d}] {
			continue
		}
		seen[[2]netlist.NodeID{s, d}] = true
		app.Messages = append(app.Messages, netlist.Message{Src: s, Dst: d, Bandwidth: 1})
	}
	perm := rng.Perm(n)
	order := make([]netlist.NodeID, k)
	for i := range order {
		order[i] = netlist.NodeID(perm[i])
	}
	candidates := map[netlist.NodeID]float64{}
	for _, c := range perm[k:] {
		if rng.Intn(4) != 0 {
			candidates[netlist.NodeID(c)] = math.Inf(-1)
		}
	}
	return app, order, candidates
}

// trialValues returns the exact longest path of every (candidate, position)
// trial in (candidate, position) order, the values an lmax can sit on
// exactly.
func trialValues(app *netlist.Application, order []netlist.NodeID, candidates map[netlist.NodeID]float64, rs *ringScratch) []float64 {
	var cands []netlist.NodeID
	for c := range candidates {
		cands = append(cands, c)
	}
	slices.Sort(cands)
	var vals []float64
	for _, c := range cands {
		set := map[netlist.NodeID]bool{c: true}
		for _, id := range order {
			set[id] = true
		}
		msgs := messagesWithin(app, set)
		for pos := range order {
			trial := append(slices.Clone(order[:pos+1]), c)
			trial = append(trial, order[pos+1:]...)
			l, _ := ringOrderLongest(app, trial, msgs, rs)
			vals = append(vals, l)
		}
	}
	return vals
}

// checkAbsorption compares one production step with the reference step.
func checkAbsorption(t *testing.T, app *netlist.Application, order []netlist.NodeID, candidates map[netlist.NodeID]float64, lmax float64, rs *ringScratch) {
	t.Helper()
	// Synthesize validates first; distinct positions keep every ring
	// segment longer than geom.Eps, which the incremental values rely on.
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	wantOrder, wantLongest, wantCand, wantOK := refBestAbsorption(app, order, candidates, lmax, newRingScratch(app))
	gotOrder, gotLongest, gotCand, gotOK := bestAbsorption(app, order, candidates, lmax, rs)
	for id, p := range rs.pos {
		if p != -1 {
			t.Fatalf("position table left %d at node %d", p, id)
		}
	}
	if gotOK != wantOK {
		t.Fatalf("lmax %v: ok %v, oracle %v (order %v, candidates %v)", lmax, gotOK, wantOK, order, candidates)
	}
	if !gotOK {
		return
	}
	if gotCand != wantCand || !slices.Equal(gotOrder, wantOrder) ||
		math.Float64bits(gotLongest) != math.Float64bits(wantLongest) {
		t.Fatalf("lmax %v: absorbed %d into %v (longest %v), oracle %d into %v (longest %v)",
			lmax, gotCand, gotOrder, gotLongest, wantCand, wantOrder, wantLongest)
	}
	rs.recycle(gotOrder)
}

// checkAggregates compares prepareAbsorb's per-segment maxima with the
// reference scan's, bit for bit.
func checkAggregates(t *testing.T, app *netlist.Application, order []netlist.NodeID, rs *ringScratch) {
	t.Helper()
	rs.place(order)
	defer rs.unplace(order)
	var msgs []netlist.Message
	for _, m := range app.Messages {
		if rs.pos[m.Src] >= 0 && rs.pos[m.Dst] >= 0 {
			msgs = append(msgs, m)
		}
	}
	ref := &refAbsorbScratch{}
	refPrepareAbsorb(ref, app, order, msgs, rs.pos)
	sc := &rs.abs
	prepareAbsorb(sc, app, order, msgs, rs)
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for j := range order {
		on, off := sc.on[j], sc.off[j]
		if !bitsEq(on.fwd, ref.coverFwd[j]) || !bitsEq(on.rev, ref.freeRev[j]) ||
			!bitsEq(off.fwd, ref.freeFwd[j]) || !bitsEq(off.rev, ref.coverRev[j]) {
			t.Fatalf("ring of %d, segment %d: on %+v off %+v, scan cover/free fwd %v/%v rev %v/%v",
				len(order), j, on, off, ref.coverFwd[j], ref.freeFwd[j], ref.coverRev[j], ref.freeRev[j])
		}
	}
}

// TestAbsorptionMatchesOracle: on seeded random rings, the per-segment
// maxima equal the reference scan's, and the production step selects the
// same candidate, builds the same order and reports the same longest-path
// bits as the reference, at unbounded, tight and exactly-hit L_max values.
// One scratch serves every instance of a size, as in a construction.
func TestAbsorptionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	scratch := map[int]*ringScratch{}
	for it := 0; it < 3000; it++ {
		app, order, candidates := randomRing(rng)
		rs := scratch[len(app.Nodes)]
		if rs == nil {
			rs = newRingScratch(app)
			scratch[len(app.Nodes)] = rs
		}
		lmaxes := []float64{math.Inf(1), 0}
		vals := trialValues(app, order, candidates, rs)
		for i := 0; i < 3 && len(vals) > 0; i++ {
			v := vals[rng.Intn(len(vals))]
			lmaxes = append(lmaxes, v, math.Nextafter(v, math.Inf(-1)), v*(1-1e-12))
		}
		checkAggregates(t, app, order, rs)
		for _, lmax := range lmaxes {
			checkAbsorption(t, app, order, candidates, lmax, rs)
		}
	}
}

// refRowMins returns, for every candidate, the smallest reference
// incremental value of its trials on order: the value its carried bound
// stands for, computed afresh.
func refRowMins(app *netlist.Application, order []netlist.NodeID, candidates map[netlist.NodeID]float64) map[netlist.NodeID]float64 {
	pos := make([]int, len(app.Nodes))
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range order {
		pos[id] = i
	}
	var msgs []netlist.Message
	cTo, cFrom := map[netlist.NodeID][]int{}, map[netlist.NodeID][]int{}
	for _, m := range app.Messages {
		ps, pd := pos[m.Src], pos[m.Dst]
		switch {
		case ps >= 0 && pd >= 0:
			msgs = append(msgs, m)
		case ps < 0 && pd >= 0:
			cTo[m.Src] = append(cTo[m.Src], pd)
		case ps >= 0 && pd < 0:
			cFrom[m.Dst] = append(cFrom[m.Dst], ps)
		}
	}
	sc := &refAbsorbScratch{}
	refPrepareAbsorb(sc, app, order, msgs, pos)
	mins := make(map[netlist.NodeID]float64, len(candidates))
	for c := range candidates {
		low := math.Inf(1)
		for p := range order {
			low = min(low, sc.insertionLongest(c, p, cTo[c], cFrom[c]))
		}
		mins[c] = low
	}
	return mins
}

// checkCarriedGrowth runs g to its end under lmax, one step at a time,
// dropping each candidate with probability 1/64 between steps (from the
// candidates and the available nodes, as growLevel prunes the nodes
// another cluster took). Before every step it checks each carried bound
// against the candidate's fresh row minimum, and the step against the
// reference step on the same ring with no bounds carried.
func checkCarriedGrowth(t *testing.T, g *growth, lmax float64, rng *rand.Rand, rs *ringScratch) {
	t.Helper()
	app := g.app
	for step := 0; ; step++ {
		fresh := refRowMins(app, g.order, g.candidates)
		unbounded := make(map[netlist.NodeID]float64, len(g.candidates))
		for c, b := range g.candidates {
			if b > fresh[c]+2*absorbEps {
				t.Fatalf("%s lmax %v step %d: candidate %d carries bound %v, fresh row minimum %v",
					app.Name, lmax, step, c, b, fresh[c])
			}
			unbounded[c] = math.Inf(-1)
		}
		wantOrder, wantLongest, wantCand, wantOK := refBestAbsorption(app, slices.Clone(g.order), unbounded, lmax, newRingScratch(app))
		cand, ok := g.step(lmax, rs)
		if ok != wantOK {
			t.Fatalf("%s lmax %v step %d: ok %v, oracle %v", app.Name, lmax, step, ok, wantOK)
		}
		if !ok {
			return
		}
		if cand != wantCand || !slices.Equal(g.order, wantOrder) ||
			math.Float64bits(g.longest) != math.Float64bits(wantLongest) {
			t.Fatalf("%s lmax %v step %d: absorbed %d into %v (longest %v), oracle %d into %v (longest %v)",
				app.Name, lmax, step, cand, g.order, g.longest, wantCand, wantOrder, wantLongest)
		}
		var cands []netlist.NodeID
		for c := range g.candidates {
			cands = append(cands, c)
		}
		slices.Sort(cands)
		for _, c := range cands {
			if rng.Intn(64) == 0 {
				delete(g.candidates, c)
				delete(g.avail, c)
			}
		}
	}
}

// TestCarriedBoundsMatchOracle: a growth whose candidates carry their
// bounds from step to step makes, at every step, the reference step's
// selection on fresh state (candidate, order and longest-path bits), and
// no carried bound exceeds its candidate's fresh row minimum by more than
// 2·absorbEps: a candidate's trials never fall as its ring grows. Inputs:
// growths from seeded random rings, and D128 and D256 grown from their 8
// sampled trial vertices under +Inf and under the L_max the construction
// selects.
func TestCarriedBoundsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for it := 0; it < 400; it++ {
		app, order, candidates := randomRing(rng)
		if err := app.Validate(); err != nil {
			t.Fatal(err)
		}
		members := map[netlist.NodeID]bool{}
		avail := map[netlist.NodeID]bool{}
		for _, id := range order {
			members[id] = true
		}
		for _, n := range app.Nodes {
			avail[n.ID] = true
		}
		lmax := math.Inf(1)
		if vals := trialValues(app, order, candidates, newRingScratch(app)); it%2 == 1 && len(vals) > 0 {
			lmax = vals[rng.Intn(len(vals))]
		}
		rs := newRingScratch(app)
		g := &growth{space: &space{app: app, adj: app.Adjacency(), avail: avail},
			order: slices.Clone(order), members: members, candidates: candidates}
		g.longest, _ = ringOrderLongest(app, g.order, messagesWithin(app, members), rs)
		checkCarriedGrowth(t, g, lmax, rng, rs)
	}
	for _, name := range []string{"D128", "D256"} {
		app, err := netlist.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Synthesize(app, Options{MaxInitialTrials: 8})
		if err != nil {
			t.Fatal(err)
		}
		adj := app.Adjacency()
		rs := newRingScratch(app)
		for _, v := range sampleTrials(app.ActiveNodes(), 8) {
			for _, lmax := range []float64{math.Inf(1), res.Lmax} {
				avail := map[netlist.NodeID]bool{}
				for _, id := range app.ActiveNodes() {
					avail[id] = true
				}
				if g := startGrowth(&space{app: app, adj: adj, avail: avail}, v, rs); g != nil {
					checkCarriedGrowth(t, g, lmax, rng, rs)
				}
			}
		}
	}
}

// FuzzAbsorption explores absorption instances beyond the seeded corpus:
// `go test` replays the seeds, `go test -fuzz=FuzzAbsorption` searches.
func FuzzAbsorption(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1234} {
		f.Add(seed, 0.5)
	}
	f.Fuzz(func(t *testing.T, seed int64, frac float64) {
		app, order, candidates := randomRing(rand.New(rand.NewSource(seed)))
		rs := newRingScratch(app)
		vals := trialValues(app, order, candidates, rs)
		lmax := math.Inf(1)
		if len(vals) > 0 && frac >= 0 && frac <= 1 {
			slices.Sort(vals)
			lmax = vals[int(frac*float64(len(vals)-1))]
		}
		checkAbsorption(t, app, order, candidates, lmax, rs)
	})
}

// oracleApps returns the construction equality corpus: the paper apps,
// the scaled SoCs up to 256 nodes, the circulants and processor-memory
// scale apps, and 48 random applications.
func oracleApps(t *testing.T) []*netlist.Application {
	apps := netlist.Benchmarks()
	for _, name := range []string{"D64", "D128", "D256", "circ64-1-9", "circ128-1-11", "32PM-96", "32PM-128"} {
		app, err := netlist.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	for seed := int64(0); seed < 48; seed++ {
		n := 4 + int(seed)%20
		app, err := netlist.Random(n, n-1+int(seed*7)%(2*n), seed)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	return apps
}

// TestSynthesizeMatchesOracle: whole constructions equal the reference
// construction field for field at several initial-vertex caps. The scale
// apps (64 nodes and up) run capped only: uncapped, they take about a
// minute together, and the paper and random apps already cover the
// uncapped path. The production run probes L_max on GOMAXPROCS workers, so
// `-cpu 1,2,8` also checks concurrent probes sharing round-1 and inter-ring
// trajectories; the reference runs sequentially.
func TestSynthesizeMatchesOracle(t *testing.T) {
	forceProbes(t)
	for _, app := range oracleApps(t) {
		for _, trials := range []int{0, 3, 8} {
			if trials == 0 && len(app.Nodes) >= 64 {
				continue
			}
			got, err := Synthesize(app, Options{MaxInitialTrials: trials})
			if err != nil {
				t.Fatalf("%s trials %d: %v", app.Name, trials, err)
			}
			want := oracleSynthesize(t, app, Options{MaxInitialTrials: trials, Parallelism: 1})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trials %d: construction differs from the oracle:\n got %+v\nwant %+v", app.Name, trials, got, want)
			}
		}
	}
}

// sharedCase is one application's round-1 reference: the growth
// growCluster makes from every trial vertex over all active nodes, and the
// absorptions it counts, at every bound of the L_max grid plus d2, +Inf
// and bounds on and just below step values.
type sharedCase struct {
	app       *netlist.Application
	maxTrials int
	lmaxes    []float64
	want      [][]grown // [bound][trial]
	wantN     [][]int64
}

func newSharedCase(app *netlist.Application, maxTrials int) *sharedCase {
	const h = 6
	d1, d2 := app.MaxCommDistance(), conventionalRingBound(app)
	sc := &sharedCase{app: app, maxTrials: maxTrials}
	for k := 1; k < 1<<h; k++ {
		sc.lmaxes = append(sc.lmaxes, d1+float64(k)*(d2-d1)/float64(int(1)<<h))
	}
	sc.lmaxes = append(sc.lmaxes, d2, math.Inf(1))
	active := map[netlist.NodeID]bool{}
	for _, id := range app.ActiveNodes() {
		active[id] = true
	}
	adj := app.Adjacency()
	rs := newRingScratch(app)
	// Bounds that sit exactly on a growth's longest path, and just below
	// it, where the prefix must keep and must drop its last step (or its
	// initial pair): the first non-singleton trial vertex's growths under
	// +Inf and under d1.
	for _, v := range sampleTrials(app.ActiveNodes(), maxTrials) {
		g := growCluster(app, adj, v, active, math.Inf(1), nil, rs)
		if g.order == nil {
			continue
		}
		for _, l := range []float64{g.longest, growCluster(app, adj, v, active, d1, nil, rs).longest} {
			sc.lmaxes = append(sc.lmaxes, l, math.Nextafter(l, math.Inf(-1)))
		}
		break
	}
	for _, lmax := range sc.lmaxes {
		var gs []grown
		var ns []int64
		for _, v := range sampleTrials(app.ActiveNodes(), maxTrials) {
			var c obs.Counter
			gs = append(gs, growCluster(app, adj, v, active, lmax, &c, rs))
			ns = append(ns, c.Value())
		}
		sc.want = append(sc.want, gs)
		sc.wantN = append(sc.wantN, ns)
	}
	return sc
}

// check requests bound li from r and compares every trial's growth and
// absorption count with the reference. It reports through t.Errorf, so it
// may run on any goroutine.
func (sc *sharedCase) check(t *testing.T, r *roundOne, li int, rs *ringScratch, how string) {
	lmax := sc.lmaxes[li]
	var tally work
	got := r.growths(lmax, &tally, rs)
	if len(got) != len(sc.want[li]) {
		t.Errorf("%s %s lmax %v: %d growths, want %d", sc.app.Name, how, lmax, len(got), len(sc.want[li]))
		return
	}
	for i, g := range got {
		w := sc.want[li][i]
		if !slices.Equal(g.order, w.order) || (g.order == nil) != (w.order == nil) ||
			!maps.Equal(g.members, w.members) ||
			math.Float64bits(g.longest) != math.Float64bits(w.longest) {
			t.Errorf("%s %s lmax %v trial %d: shared growth %v %v (longest %v), growCluster %v %v (longest %v)",
				sc.app.Name, how, lmax, i, g.order, g.members, g.longest, w.order, w.members, w.longest)
		}
		if k := tally.reads[i].k; int64(k) != sc.wantN[li][i] {
			t.Errorf("%s %s lmax %v trial %d: %d absorptions, growCluster counts %d",
				sc.app.Name, how, lmax, i, k, sc.wantN[li][i])
		}
	}
}

// TestSharedGrowthMatchesGrowCluster: the round-1 growth a probe reads from
// the shared trajectories equals growCluster from the same vertex over all
// active nodes (order, members and longest-path bits), and so does its
// absorption count, whatever order the bounds are requested in: ascending,
// descending or shuffled, each on fresh trajectories. Every trial vertex of
// every app is covered, with the scale apps (64 nodes and up) at 3 trials:
// the reference regrows every vertex at every bound, and at 8 trials the
// scale apps alone take minutes under the race detector.
// TestSynthesizeMatchesOracle runs them at 8 trials end to end. The
// concurrent variant has several goroutines request random bounds from one
// set of trajectories.
func TestSharedGrowthMatchesGrowCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var cases []*sharedCase
	for _, app := range oracleApps(t) {
		trials := 0
		if len(app.Nodes) >= 64 {
			trials = 3
		}
		sc := newSharedCase(app, trials)
		cases = append(cases, sc)
		n := len(sc.lmaxes)
		asc := make([]int, n)
		for i := range asc {
			asc[i] = i
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		for _, seq := range []struct {
			how   string
			order []int
		}{{"ascending", asc}, {"descending", desc}, {"shuffled", rng.Perm(n)}} {
			r := newRoundOne(app, app.Adjacency(), trials)
			rs := newRingScratch(app)
			for _, li := range seq.order {
				sc.check(t, r, li, rs, seq.how)
			}
		}
	}
	if t.Failed() {
		return
	}
	t.Run("concurrent", func(t *testing.T) {
		const goroutines, requests = 4, 24
		for ci, sc := range cases {
			if ci%4 != 0 { // every fourth app keeps the race run short
				continue
			}
			r := newRoundOne(sc.app, sc.app.Adjacency(), sc.maxTrials)
			var wg sync.WaitGroup
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					rs := newRingScratch(sc.app)
					for i := 0; i < requests; i++ {
						sc.check(t, r, rng.Intn(len(sc.lmaxes)), rs, "concurrent")
					}
				}(int64(ci*goroutines + w))
			}
			wg.Wait()
		}
	})
}

// oracleSynthesize runs Synthesize through the reference step, level
// growth and inter ring.
func oracleSynthesize(t *testing.T, app *netlist.Application, opt Options) *Result {
	t.Helper()
	step, level, inter := absorbStep, levelGrowth, interGrowth
	absorbStep, levelGrowth, interGrowth = refBestAbsorption, refGrowLevel, refInterRing
	defer func() { absorbStep, levelGrowth, interGrowth = step, level, inter }()
	res, err := Synthesize(app, opt)
	if err != nil {
		t.Fatalf("%s oracle: %v", app.Name, err)
	}
	return res
}

// TestClusterWorkUnits pins the absorptions, abandoned growths and
// incremental trials one Synthesize performs, at Parallelism 1, 2 and 8:
// all three are charged at consumption, so they read the same whichever
// probe computed the work. A growth that a later growLevel round can reuse
// is not grown, and so not counted, again; an absorption along a
// trajectory shared across L_max probes (round 1, inter rings) is counted
// once per construction, with its step's trials; a trial that can no
// longer win its round stops growing; and a candidate whose carried bound
// cannot win a step is not evaluated.
func TestClusterWorkUnits(t *testing.T) {
	forceProbes(t)
	for _, tc := range []struct {
		name                      string
		trials                    int
		absorbs, abandon, evalled int64
	}{
		// Absorptions: 3931 when every round of every probe regrew every
		// trial, 3401 when later rounds reused growths, 1657 with round 1
		// shared across probes, before trials were abandoned and inter
		// rings shared.
		// Trials: 58598 and 483658 before candidates carried their
		// bounds across steps.
		{"D26", 0, 1312, 96, 40781},
		{"D128", 8, 4998, 302, 165571}, // 10603, 7901 and 6785 likewise
	} {
		app, err := netlist.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			rec := obs.New()
			sp := rec.StartSpan("test")
			opt := Options{MaxInitialTrials: tc.trials, Parallelism: workers, Obs: sp}
			if _, err := Synthesize(app, opt); err != nil {
				t.Fatal(err)
			}
			sp.End()
			c := rec.Snapshot().Counters
			if got := c["cluster.absorptions"]; got != tc.absorbs {
				t.Errorf("%s (trials %d, parallelism %d): %d absorptions, want %d", tc.name, tc.trials, workers, got, tc.absorbs)
			}
			if got := c["cluster.growths_abandoned"]; got != tc.abandon {
				t.Errorf("%s (trials %d, parallelism %d): %d growths abandoned, want %d", tc.name, tc.trials, workers, got, tc.abandon)
			}
			if got := c["cluster.trials_evaluated"]; got != tc.evalled {
				t.Errorf("%s (trials %d, parallelism %d): %d trials evaluated, want %d", tc.name, tc.trials, workers, got, tc.evalled)
			}
		}
	}
}

// TestAbsorptionStepAllocatesNothing: once its scratch is warm, an
// absorption step that hands its replaced order back allocates nothing.
func TestAbsorptionStepAllocatesNothing(t *testing.T) {
	app := netlist.D26()
	active := app.ActiveNodes()
	order := active[:len(active)/2]
	candidates := map[netlist.NodeID]float64{}
	for _, id := range active[len(active)/2:] {
		candidates[id] = math.Inf(-1)
	}
	rs := newRingScratch(app)
	step := func() {
		newOrder, _, _, ok := bestAbsorption(app, order, candidates, math.Inf(1), rs)
		if !ok {
			t.Fatal("no absorption under an unbounded L_max")
		}
		rs.recycle(newOrder)
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("warmed absorption step: %v allocations, want 0", allocs)
	}
}
