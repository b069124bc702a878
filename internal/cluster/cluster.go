// Package cluster implements the SRing sub-ring construction method
// (paper Sec. III-A): nodes are clustered by communication requirement and
// physical location, each cluster is connected by one intra-cluster sub-ring
// waveguide, and at most one additional inter-cluster sub-ring connects all
// nodes with cross-cluster traffic — so every node has at most two senders.
//
// The maximum permissible signal-path length L_max is binary-searched over a
// balanced tree of 2^h − 1 equidistant values in [d1, d2], where d1 is the
// maximum Manhattan distance between communicating nodes and d2 the longest
// signal path of a conventional sequential ring. For each candidate L_max,
// sub-rings grow by absorption: a candidate vertex is inserted into the ring
// edge that minimises the resulting longest signal path, rejecting
// insertions that would exceed L_max.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/ring"
)

// Options tunes the synthesis.
type Options struct {
	// TreeHeight is the paper's h: the L_max search tree holds 2^h − 1
	// equidistant values. Zero means 6 (63 values).
	TreeHeight int
	// MaxInitialTrials caps how many initial vertices are tried per
	// cluster round. The paper tries every unclustered vertex, which is
	// O(n) growths per round and fine at benchmark scale (n <= 26); for
	// larger networks a cap trades a little quality for a lot of runtime.
	// Zero means unlimited (the paper's behaviour).
	MaxInitialTrials int
	// Parallelism is the number of concurrent L_max feasibility probes:
	// 0 means GOMAXPROCS, 1 means the plain sequential search. Candidate
	// bounds in the current candidate's BST subtree are probed
	// speculatively while the binary search consumes verdicts in its
	// sequential descent order, so the selected L_max and the returned
	// construction are bit-identical to the sequential run.
	Parallelism int
	// Obs, when non-nil, is the parent span under which the construction
	// records its telemetry: the L_max binary search (one child span per
	// evaluated bound with its feasibility verdict), absorption-step
	// counters, and the final cluster/ring counts.
	Obs *obs.Span
}

// Telemetry in the process registry: the feasibility-probe time per
// candidate bound, and the selected hierarchy's shape. The cluster.level.*
// metrics have no span; they are recorded once per construction from the
// selected solution, so they are deterministic at any Parallelism:
// cluster.level.depth     — hierarchy depth distribution across runs;
// cluster.level.rings     — inter rings above level 1 (0 for the paper's
// two-level shape);
// cluster.level.escalated — messages carried above level 1.
var (
	probeH          = obs.Default().Histogram("cluster.probe.ns")
	levelDepthH     = obs.Default().Histogram("cluster.level.depth")
	levelRingsC     = obs.Default().Counter("cluster.level.rings")
	levelEscalatedC = obs.Default().Counter("cluster.level.escalated")
)

// Result is a complete sub-ring construction.
type Result struct {
	// Clusters lists the node sets, sorted by ID within each cluster and
	// by smallest member across clusters. Singleton clusters (nodes whose
	// traffic is all inter-cluster) carry no intra ring.
	Clusters [][]netlist.NodeID
	// Rings holds the intra-cluster sub-rings followed by the escalation
	// levels' inter sub-rings in level order. Ring IDs are dense indices
	// into this slice; each ring's Level is 0 for intra rings and k >= 1
	// for level-k inter rings.
	Rings []*ring.Ring
	// InterRing points at the inter-cluster ring inside Rings when the
	// construction has the paper's two-level shape (exactly one inter
	// ring), nil otherwise.
	InterRing *ring.Ring
	// Levels is the hierarchy depth: 1 when all traffic is intra-cluster,
	// 2 for the paper's cluster + single-inter-ring shape, more when the
	// escalation set was recursively partitioned.
	Levels int
	// Escalated counts the messages carried above level 1, i.e. the
	// traffic the paper's two-level construction could not have placed.
	Escalated int
	// RingForMessage maps each message index to the ID of the ring that
	// carries it.
	RingForMessage []int
	// Lmax is the bound under which the returned solution was constructed
	// (+Inf if only the unbounded fallback succeeded).
	Lmax float64
	// D1, D2 bound the search range.
	D1, D2 float64
	// Evaluated counts how many L_max values the binary search tried.
	Evaluated int
	// Cancelled reports that the L_max binary search was interrupted by
	// context cancellation: the construction is the best (smallest) feasible
	// L_max found before the interrupt, valid but possibly not minimal.
	Cancelled bool
}

// Synthesize runs the SRing clustering with no cancellation hook. See
// SynthesizeContext.
func Synthesize(app *netlist.Application, opt Options) (*Result, error) {
	return SynthesizeContext(context.Background(), app, opt)
}

// SynthesizeContext runs the SRing clustering for the application.
// Cancelling ctx stops the L_max binary search after the candidate being
// evaluated: if a feasible clustering was already found it is returned
// with Result.Cancelled set; otherwise the context error is returned.
func SynthesizeContext(ctx context.Context, app *netlist.Application, opt Options) (*Result, error) {
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	h := opt.TreeHeight
	if h == 0 {
		h = 6
	}
	if h < 1 || h > 20 {
		return nil, fmt.Errorf("cluster: tree height %d out of range [1, 20]", h)
	}

	sp := opt.Obs.StartSpan("cluster.synthesize")
	defer sp.End()
	iters := sp.Counter("cluster.search.iterations")
	absorb := sp.Counter("cluster.absorptions")
	abandoned := sp.Counter("cluster.growths_abandoned")
	trials := sp.Counter("cluster.trials_evaluated")

	d1 := app.MaxCommDistance()
	d2 := conventionalRingBound(app)
	adj := app.Adjacency()
	sp.SetInt("tree_height", int64(h))
	sp.SetFloat("d1", d1)
	sp.SetFloat("d2", d2)

	// recordBound wraps one consumed candidate verdict in its own span, so
	// the trace shows the whole descent in selection order regardless of
	// when (or on which goroutine) the probe actually ran.
	recordBound := func(lmax float64, sol *Result) {
		iters.Add(1)
		bsp := sp.StartSpan("cluster.bound")
		bsp.SetFloat("lmax", lmax)
		bsp.SetBool("feasible", sol != nil)
		if sol != nil {
			bsp.SetInt("clusters", int64(len(sol.Clusters)))
		}
		bsp.End()
	}

	// consume records one probe's verdict in the search's selection order,
	// charging its absorptions, trials and abandoned growths only now (see
	// problem.charge).
	p := &problem{app: app, adj: adj, maxTrials: opt.MaxInitialTrials,
		round1: newRoundOne(app, adj, opt.MaxInitialTrials), inter: map[string]*interSet{}}
	consume := func(lmax float64, pr *probe) *Result {
		a, tr := p.charge(pr)
		absorb.Add(a)
		trials.Add(tr)
		abandoned.Add(pr.work.abandoned)
		recordBound(lmax, pr.sol)
		return pr.sol
	}
	// tryBound evaluates one L_max candidate inline: the sequential path,
	// also used for the fallback bounds below.
	tryBound := func(lmax float64) *Result {
		return consume(lmax, p.run(lmax))
	}

	// Binary search over the 2^h − 1 equidistant interior values of
	// [d1, d2] (the paper's balanced BST descent: valid -> left child,
	// invalid -> right child).
	count := 1<<h - 1
	valueAt := func(k int) float64 { // k in 1..count
		return d1 + float64(k)*(d2-d1)/float64(int(1)<<h)
	}
	var pb *prober
	if workers := resolveSpecWorkers(opt.Parallelism); workers > 1 {
		pb = newProber(p, valueAt, workers)
		defer pb.close(sp)
	}
	var best *Result
	cancelled := false
	evaluated := 0
	lo, hi := 1, count
	for lo <= hi {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		mid := (lo + hi) / 2
		lmax := valueAt(mid)
		evaluated++
		var sol *Result
		if pb != nil {
			pb.speculate(lo, hi)
			sol = consume(lmax, pb.get(mid))
		} else {
			sol = tryBound(lmax)
		}
		if sol != nil {
			sol.Lmax = lmax
			best = sol
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		if cancelled {
			// Nothing feasible yet: there is no incumbent to degrade to.
			return nil, fmt.Errorf("cluster: %w", ctx.Err())
		}
		// Right edge of the range, then the unbounded fallback (always
		// feasible: every communication component collapses into one
		// cluster and no inter ring is needed).
		evaluated++
		if sol := tryBound(d2); sol != nil {
			sol.Lmax = d2
			best = sol
		} else {
			evaluated++
			sol = tryBound(math.Inf(1))
			if sol == nil {
				return nil, fmt.Errorf("cluster: no feasible clustering for %s (internal error)", app.Name)
			}
			sol.Lmax = math.Inf(1)
			best = sol
		}
	}
	best.D1, best.D2 = d1, d2
	best.Evaluated = evaluated
	best.Cancelled = cancelled
	sp.SetInt("evaluated", int64(evaluated))
	sp.SetInt("clusters", int64(len(best.Clusters)))
	sp.SetInt("rings", int64(len(best.Rings)))
	sp.SetBool("inter_ring", best.InterRing != nil)
	sp.SetInt("levels", int64(best.Levels))
	sp.SetFloat("lmax", best.Lmax)
	sp.SetBool("cancelled", cancelled)
	levelDepthH.Record(int64(best.Levels))
	deep := 0
	for _, r := range best.Rings {
		if r.Level >= 2 {
			deep++
		}
	}
	levelRingsC.Add(int64(deep))
	levelEscalatedC.Add(int64(best.Escalated))
	return best, nil
}

// conventionalRingBound returns d2: the longest signal path if all active
// nodes are connected sequentially as in a conventional dual-direction ring
// router, taking each message's shorter direction.
//
// Each direction's length is summed segment by segment from the source, in
// travel order, exactly as ring.PathLength sums it on the ring and on its
// reverse (whose segment i is this ring's segment n-2-i, mod n): the bound
// fixes the L_max grid, so it must keep PathLength's bits.
func conventionalRingBound(app *netlist.Application) float64 {
	order := app.ActiveNodes()
	n := len(order)
	lens := make([]float64, n)
	pos := make([]int, len(app.Nodes))
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range order {
		lens[i] = app.Pos(id).Manhattan(app.Pos(order[(i+1)%n]))
		pos[id] = i
	}
	var worst float64
	for _, m := range app.Messages {
		si, di := pos[m.Src], pos[m.Dst]
		if si < 0 || di < 0 || si == di {
			continue // cannot occur: both endpoints are messaged, and distinct
		}
		var cw, ccw float64
		for i := si; i != di; i = (i + 1) % n {
			cw += lens[i]
		}
		for i := si; i != di; {
			i = (i + n - 1) % n
			ccw += lens[i]
		}
		if l := math.Min(cw, ccw); l > worst {
			worst = l
		}
	}
	return worst
}

// ringScratch is reusable scratch for ring-order evaluation and absorption:
// a NodeID-indexed position table (Application.Validate guarantees dense
// IDs) holding -1 for every node off the ring being evaluated, plus the
// buffers of ringOrderLongest and bestAbsorption. Users restore the table
// to all -1 after each use, so one scratch serves a whole buildSolution —
// every growth of one L_max probe — without reallocating. Not safe for
// concurrent use.
type ringScratch struct {
	pos    []int
	prefix []float64

	// bestAbsorption's buffers.
	cands      []netlist.NodeID
	cTo, cFrom [][]int
	msgs       []netlist.Message
	keys       []float64
	row        []int
	vals       []float64
	abs        absorbScratch
	// trials is the running total of the (candidate, position) trials
	// bestAbsorption has evaluated incrementally.
	trials int64
	// trial is the losing trial order's buffer; spare is a dead order
	// handed back by recycle, the next winner's buffer.
	trial, spare []netlist.NodeID
}

func newRingScratch(app *netlist.Application) *ringScratch {
	pos := make([]int, len(app.Nodes))
	for i := range pos {
		pos[i] = -1
	}
	return &ringScratch{pos: pos}
}

// recycle hands back an order buffer nothing references any more, so the
// next absorption step can build its winner there.
func (rs *ringScratch) recycle(order []netlist.NodeID) {
	if cap(order) > cap(rs.spare) {
		rs.spare = order[:0]
	}
}

// place records the ring position of every node of order.
func (rs *ringScratch) place(order []netlist.NodeID) {
	for i, id := range order {
		rs.pos[id] = i
	}
}

// unplace restores the entries place set to -1.
func (rs *ringScratch) unplace(order []netlist.NodeID) {
	for _, id := range order {
		rs.pos[id] = -1
	}
}

// ringOrderLongest evaluates a candidate node order carrying the given
// messages: the longest directed path length, minimised over the two
// traversal directions. It returns the longest path and whether the order
// should be reversed to achieve it.
//
// Implemented with prefix sums over the cycle (O(len + msgs)) in rs's
// reused buffers; this is the inner loop of the absorption search. Message
// order does not matter: both directions take a maximum.
func ringOrderLongest(app *netlist.Application, order []netlist.NodeID, msgs []netlist.Message, rs *ringScratch) (longest float64, reversed bool) {
	if len(msgs) == 0 {
		return 0, false
	}
	n := len(order)
	rs.place(order)
	defer rs.unplace(order)
	rs.prefix = resize(rs.prefix, n+1)
	prefix := rs.prefix
	prefix[0] = 0
	for i := 0; i < n; i++ {
		next := order[(i+1)%n]
		prefix[i+1] = prefix[i] + app.Pos(order[i]).Manhattan(app.Pos(next))
	}
	perimeter := prefix[n]
	var lf, lr float64
	for _, m := range msgs {
		si, di := rs.pos[m.Src], rs.pos[m.Dst]
		if si < 0 || di < 0 || si == di {
			return math.Inf(1), false
		}
		fwd := prefix[di] - prefix[si]
		if fwd < 0 {
			fwd += perimeter
		}
		lf = math.Max(lf, fwd)
		lr = math.Max(lr, perimeter-fwd)
	}
	if lr < lf {
		return lr, true
	}
	return lf, false
}

// messagesWithin returns the app messages whose endpoints both lie in set.
func messagesWithin(app *netlist.Application, set map[netlist.NodeID]bool) []netlist.Message {
	var out []netlist.Message
	for _, m := range app.Messages {
		if set[m.Src] && set[m.Dst] {
			out = append(out, m)
		}
	}
	return out
}

// grown is a grown sub-ring candidate.
type grown struct {
	order   []netlist.NodeID
	members map[netlist.NodeID]bool
	longest float64
}

// space is where sub-rings grow: the application, the adjacency candidates
// follow, the available nodes, and whether a growth with no adjacent
// candidate falls back to every available non-member (the inter ring must
// carry them all).
type space struct {
	app   *netlist.Application
	adj   map[netlist.NodeID][]netlist.NodeID
	avail map[netlist.NodeID]bool
	fill  bool
}

// growth is a sub-ring in the middle of growing by absorption: its ring
// order and members, the available non-members adjacent to a member, each
// with the lower bound on its trials that bestAbsorption carries from step
// to step, and the order's longest signal path.
type growth struct {
	*space
	order      []netlist.NodeID
	members    map[netlist.NodeID]bool
	candidates map[netlist.NodeID]float64
	longest    float64
	held       bool // the last absorption passed grow's cut and is uncounted
}

// startGrowth pairs the initial vertex with its nearest available
// communication partner (ties: smaller ID) — or, in a filling space, with
// the nearest available node when it has none — or returns nil if there is
// no partner. The pair's longest path is not checked against any bound.
func startGrowth(s *space, initial netlist.NodeID, rs *ringScratch) *growth {
	nearest := nearestOf(s, initial, s.adj[initial])
	if nearest < 0 && s.fill {
		nearest = nearestOf(s, initial, nil)
	}
	if nearest < 0 {
		return nil
	}
	g := &growth{
		space:      s,
		order:      []netlist.NodeID{initial, nearest},
		members:    map[netlist.NodeID]bool{initial: true, nearest: true},
		candidates: make(map[netlist.NodeID]float64),
	}
	g.longest, _ = ringOrderLongest(s.app, g.order, messagesWithin(s.app, g.members), rs)
	g.addCandidates(initial)
	g.addCandidates(nearest)
	return g
}

// nearestOf returns the available node of from nearest to v (every
// available node but v when from is nil), the smaller ID on ties, or -1.
func nearestOf(s *space, v netlist.NodeID, from []netlist.NodeID) netlist.NodeID {
	var nearest netlist.NodeID = -1
	bestDist := math.Inf(1)
	try := func(u netlist.NodeID) {
		if u == v || !s.avail[u] {
			return
		}
		d := s.app.Pos(v).Manhattan(s.app.Pos(u))
		if d < bestDist || (d == bestDist && (nearest < 0 || u < nearest)) {
			nearest, bestDist = u, d
		}
	}
	if from == nil {
		for u := range s.avail {
			try(u)
		}
	}
	for _, u := range from {
		try(u)
	}
	return nearest
}

// addCandidates makes v's available non-member partners candidates. A new
// candidate has no bound yet; an existing one keeps its own.
func (g *growth) addCandidates(v netlist.NodeID) {
	for _, u := range g.adj[v] {
		if _, ok := g.candidates[u]; !ok && g.avail[u] && !g.members[u] {
			g.candidates[u] = math.Inf(-1)
		}
	}
}

// step absorbs the best candidate under lmax (see bestAbsorption) and
// returns it; ok is false, and g unchanged, when no absorption is valid. In
// a filling space a growth with no adjacent candidate draws from every
// available non-member.
func (g *growth) step(lmax float64, rs *ringScratch) (cand netlist.NodeID, ok bool) {
	filled := false
	if len(g.candidates) == 0 && g.fill {
		for u := range g.avail {
			if !g.members[u] {
				g.candidates[u] = math.Inf(-1)
			}
		}
		filled = true
	}
	if len(g.candidates) == 0 {
		return -1, false
	}
	order, longest, cand, ok := absorbStep(g.app, g.order, g.candidates, lmax, rs)
	if filled {
		// The fallback set holds nodes adjacent to no member; the next
		// step starts again from adjacency.
		clear(g.candidates)
	}
	if !ok {
		return -1, false
	}
	rs.recycle(g.order)
	g.order, g.longest = order, longest
	g.members[cand] = true
	delete(g.candidates, cand)
	g.addCandidates(cand)
	return cand, true
}

// grow absorbs under lmax until no absorption is valid, reporting true, or
// the longest path exceeds cut, reporting false: the growth is paused and a
// later grow may resume it. Like a step past lmax, the step that takes the
// growth past cut is not counted as an absorption, unless a later grow
// resumes the growth past it.
func (g *growth) grow(lmax, cut float64, absorb *obs.Counter, rs *ringScratch) bool {
	if g.held && g.longest <= cut {
		absorb.Add(1)
		g.held = false
	}
	for g.longest <= cut {
		if _, ok := g.step(lmax, rs); !ok {
			return true
		}
		if g.longest > cut {
			g.held = true
			return false
		}
		absorb.Add(1)
	}
	return false
}

// The hierarchy's shape. Escalation sets larger than interRingMax nodes
// recurse into a further level of sub-rings instead of being forced onto
// one inter-ring; 32 is comfortably above the ≤26-node paper benchmarks, so
// they always take the paper's exact two-level construction, the 64-node
// scale apps typically do too, while 128 nodes and up recurse. maxLevels
// caps the hierarchy depth, counting the cluster level.
const (
	interRingMax = 32
	maxLevels    = 8
)

// levelGroups is one escalation level of the hierarchy: the indices of the
// messages that reached it (not carried by any lower level) and the node
// groups, each with its grown sub-ring, formed there.
type levelGroups struct {
	pool   []int
	groups []grown
}

// Test seams: the oracle tests substitute the reference absorption step,
// level growth and inter ring kept in absorb_oracle_test.go.
var (
	absorbStep  = bestAbsorption
	levelGrowth = growLevel
	interGrowth = (*problem).interRing
)

// growLevel partitions the given node set into grown sub-rings under lmax:
// rounds of trying each available vertex as the initial vertex and keeping
// the best grown ring (the paper's cluster-formation loop, reused verbatim
// at every hierarchy level). A non-nil first holds the first round's
// growths in trial order, already grown (the shared round-1 trajectories).
//
// A growth from v is unchanged in a later round unless the kept cluster
// took one of its members: removing from avail a node the growth never
// absorbed removes a candidate that never won a first-minimum selection,
// and a singleton stays one (its next-nearest partner is no closer). Such
// growths are kept and reused instead of being grown (and counted) again.
//
// A growth's longest path never falls as it grows, so a round first ranks
// its already finished growths, then grows the rest in trial order against
// the best so far: a growth whose longest path exceeds the best's by more
// than absorbEps could only finish longer, so it is paused there and
// counted abandoned. A paused growth stays valid, and resumable in a later
// round, under the same rule as a finished one. Exact ties go to the
// earlier trial, the one the sequential scan keeps (DESIGN.md §14.2).
func growLevel(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID,
	nodes map[netlist.NodeID]bool, lmax float64, maxTrials int, first []grown, w *work, rs *ringScratch) []grown {

	s := &space{app: app, adj: adj, avail: make(map[netlist.NodeID]bool, len(nodes))}
	for id := range nodes {
		s.avail[id] = true
	}
	reuse := make(map[netlist.NodeID]grown)    // initial vertex -> finished growth
	paused := make(map[netlist.NodeID]*growth) // initial vertex -> abandoned growth
	var out []grown
	for len(s.avail) > 0 {
		ids := make([]netlist.NodeID, 0, len(s.avail))
		for id := range s.avail {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		trials := sampleTrials(ids, maxTrials)

		// Keep the grown cluster with the shortest longest signal path
		// (ties: larger cluster, then smaller initial ID, then earlier
		// trial). MaxInitialTrials caps the trials for large networks.
		var best grown
		bi := -1
		keep := func(i int, g grown) {
			if bi < 0 || better(g, best) || (!better(best, g) && i < bi) {
				best, bi = g, i
			}
		}
		var rest []int
		for i, v := range trials {
			if first != nil {
				reuse[v] = first[i]
			}
			if g, ok := reuse[v]; ok {
				keep(i, g)
			} else {
				rest = append(rest, i)
			}
		}
		first = nil
		for _, i := range rest {
			v := trials[i]
			g := paused[v]
			if g == nil {
				if g = startGrowth(s, v, rs); g == nil || g.longest > lmax {
					// No available partner, or it cannot even pair with
					// the nearest one (possible only for L_max below d1,
					// which the search range excludes): singleton.
					reuse[v] = grown{members: map[netlist.NodeID]bool{v: true}}
					keep(i, reuse[v])
					continue
				}
			}
			cut := math.Inf(1)
			if bi >= 0 {
				cut = best.longest + absorbEps
			}
			before := rs.trials
			done := g.grow(lmax, cut, &w.absorbs, rs)
			w.trials += rs.trials - before
			if !done {
				paused[v] = g
				w.abandoned++
				continue
			}
			delete(paused, v)
			reuse[v] = grown{order: g.order, members: g.members, longest: g.longest}
			keep(i, reuse[v])
		}
		out = append(out, best)
		for m := range best.members {
			delete(s.avail, m)
		}
		for v, g := range reuse {
			if !within(g.members, s.avail) {
				delete(reuse, v)
			}
		}
		for v, g := range paused {
			if !within(g.members, s.avail) {
				delete(paused, v)
				continue
			}
			for c := range g.candidates {
				if !s.avail[c] {
					delete(g.candidates, c)
				}
			}
		}
	}
	return out
}

// within reports whether every member is in set.
func within(members, set map[netlist.NodeID]bool) bool {
	for m := range members {
		if !set[m] {
			return false
		}
	}
	return true
}

// sampleTrials caps the initial-vertex candidate list with a deterministic
// spread over the available vertices. maxTrials <= 0 means no cap.
func sampleTrials(ids []netlist.NodeID, maxTrials int) []netlist.NodeID {
	if maxTrials <= 0 || len(ids) <= maxTrials {
		return ids
	}
	sampled := make([]netlist.NodeID, 0, maxTrials)
	step := float64(len(ids)) / float64(maxTrials)
	for k := 0; k < maxTrials; k++ {
		sampled = append(sampled, ids[int(float64(k)*step)])
	}
	return sampled
}

// groupIndex maps every member of every group to its group's index.
func groupIndex(groups []grown) map[netlist.NodeID]int {
	of := make(map[netlist.NodeID]int)
	for gi, g := range groups {
		for m := range g.members {
			of[m] = gi
		}
	}
	return of
}

// problem is what every L_max probe of one SynthesizeContext call shares:
// the application and its communication adjacency, the options that shape
// a construction, the round-1 trajectories and the inter-ring trajectories
// by node set. buildSolution is a pure function of (problem, lmax): the
// trajectories only cache growths.
type problem struct {
	app       *netlist.Application
	adj       map[netlist.NodeID][]netlist.NodeID
	maxTrials int
	round1    *roundOne
	interMu   sync.Mutex // guards inter
	inter     map[string]*interSet
}

// work is what one probe tallies: the absorptions it performed itself and
// the trials its own steps evaluated, the growths it abandoned, and how far
// it read along each shared trajectory.
type work struct {
	absorbs   obs.Counter
	trials    int64
	abandoned int64
	reads     []read
}

// probe is one L_max feasibility probe: its construction (nil when
// infeasible) and its work.
type probe struct {
	sol  *Result
	work work
}

// run probes lmax: it runs buildSolution and records the probe latency.
func (p *problem) run(lmax float64) *probe {
	start := time.Now()
	pr := &probe{}
	pr.sol = p.buildSolution(lmax, &pr.work)
	probeH.RecordSince(start)
	return pr
}

// charge returns the absorptions and trials to count for a consumed probe.
// Only the search goroutine calls it, in its selection order, so the counts
// match the sequential run at any Parallelism: unconsumed probes add
// nothing, and each absorption along a shared trajectory, with the trials
// of its step, is charged to the first consumed probe that needs it,
// whichever probe computed it.
func (p *problem) charge(pr *probe) (absorbs, trials int64) {
	absorbs, trials = chargeReads(pr.work.reads)
	return absorbs + pr.work.absorbs.Value(), trials + pr.work.trials
}

// buildSolution attempts a full clustering under lmax. It returns nil if
// the escalation levels cannot all be closed (the paper's "invalid
// solution": move L_max to its right child).
//
// Level 0 is the paper's cluster formation over all active nodes. Messages
// crossing clusters escalate to level 1; while the escalated node set is
// larger than interRingMax the set is recursively partitioned into another
// level of sub-rings by the same absorption growth (clusters of clusters),
// with the messages still crossing groups escalating further. Once the set
// fits — or the recursion stops making progress or hits maxLevels — a
// single terminal ring over all remaining nodes closes the hierarchy, the
// paper's inter-ring construction verbatim. Every node therefore sends on
// at most one ring per level it appears in, the multi-level extension of
// the paper's ≤2-senders invariant.
//
// The first round of level 0 comes from p.round1, and the terminal ring
// from p's shared inter-ring trajectories; w records the reads.
func (p *problem) buildSolution(lmax float64, w *work) *Result {
	app, adj, maxTrials := p.app, p.adj, p.maxTrials
	rs := newRingScratch(app)
	first := p.round1.growths(lmax, w, rs)
	clusters := levelGrowth(app, adj, p.round1.avail, lmax, maxTrials, first, w, rs)
	clusterOf := groupIndex(clusters)

	// Messages crossing clusters escalate to level 1.
	var pool []int
	for i, m := range app.Messages {
		if clusterOf[m.Src] != clusterOf[m.Dst] {
			pool = append(pool, i)
		}
	}

	var upper []levelGroups
	for level := 1; len(pool) > 0; level++ {
		nodes := make(map[netlist.NodeID]bool)
		for _, i := range pool {
			nodes[app.Messages[i].Src] = true
			nodes[app.Messages[i].Dst] = true
		}
		var groups []grown
		var next []int
		if len(nodes) > interRingMax && level < maxLevels {
			// Too many escalated nodes for one ring: partition them into a
			// further level of sub-rings and escalate what still crosses.
			groups = levelGrowth(app, adj, nodes, lmax, maxTrials, nil, w, rs)
			groupOf := groupIndex(groups)
			for _, i := range pool {
				m := app.Messages[i]
				if groupOf[m.Src] != groupOf[m.Dst] {
					next = append(next, i)
				}
			}
		}
		if groups == nil || len(next) == len(pool) {
			// The set fits one ring, the depth cap is reached, or no
			// message was absorbed at this level (grouping made no
			// progress): close the hierarchy with the terminal ring.
			order := interGrowth(p, nodes, lmax, w, rs)
			if order == nil {
				return nil // no valid initial vertex: solution invalid
			}
			members := make(map[netlist.NodeID]bool, len(order))
			for _, id := range order {
				members[id] = true
			}
			upper = append(upper, levelGroups{pool: pool, groups: []grown{{order: order, members: members}}})
			break
		}
		upper = append(upper, levelGroups{pool: pool, groups: groups})
		pool = next
	}

	return assembleResult(app, clusters, clusterOf, upper, rs)
}

// better orders grown clusters: shorter longest path wins, then more
// members, then smaller smallest ID.
func better(a, b grown) bool {
	if a.longest != b.longest {
		return a.longest < b.longest
	}
	if len(a.members) != len(b.members) {
		return len(a.members) > len(b.members)
	}
	return minID(a.members) < minID(b.members)
}

func minID(set map[netlist.NodeID]bool) netlist.NodeID {
	min := netlist.NodeID(math.MaxInt32)
	for id := range set {
		if id < min {
			min = id
		}
	}
	return min
}

// assembleResult freezes clusters and the escalation levels into a Result,
// fixing each ring's direction to the one minimising its longest signal
// path over the messages it carries.
func assembleResult(app *netlist.Application, clusters []grown, clusterOf map[netlist.NodeID]int, upper []levelGroups, rs *ringScratch) *Result {
	res := &Result{}
	ringID := 0
	intraRingOf := make(map[int]int) // cluster index -> ring ID
	for ci, g := range clusters {
		memberList := make([]netlist.NodeID, 0, len(g.members))
		for m := range g.members {
			memberList = append(memberList, m)
		}
		sort.Slice(memberList, func(i, j int) bool { return memberList[i] < memberList[j] })
		res.Clusters = append(res.Clusters, memberList)
		if len(g.order) >= 2 {
			order := g.order
			if _, rev := ringOrderLongest(app, order, messagesWithin(app, g.members), rs); rev {
				order = (&ring.Ring{Order: order}).Reversed().Order
			}
			res.Rings = append(res.Rings, &ring.Ring{ID: ringID, Kind: ring.Intra, Order: order})
			intraRingOf[ci] = ringID
			ringID++
		} else {
			intraRingOf[ci] = -1
		}
	}
	sort.Slice(res.Clusters, func(i, j int) bool { return res.Clusters[i][0] < res.Clusters[j][0] })

	// Escalation-level rings, level by level in group-formation order. A
	// group ring materialises only if it carries at least one escalated
	// message; a group whose members reached it only through already-carried
	// traffic would waste a sender per member.
	type upperRing struct {
		members map[netlist.NodeID]bool
		ring    *ring.Ring
	}
	levels := make([][]upperRing, len(upper))
	for li, lv := range upper {
		for _, g := range lv.groups {
			if len(g.order) < 2 {
				continue
			}
			carried := poolWithin(app, lv.pool, g.members)
			if len(carried) == 0 {
				continue
			}
			order := g.order
			if _, rev := ringOrderLongest(app, order, carried, rs); rev {
				order = (&ring.Ring{Order: order}).Reversed().Order
			}
			r := &ring.Ring{ID: ringID, Kind: ring.Inter, Level: li + 1, Order: order}
			res.Rings = append(res.Rings, r)
			levels[li] = append(levels[li], upperRing{members: g.members, ring: r})
			ringID++
		}
	}
	if len(upper) == 1 && len(levels[0]) == 1 {
		res.InterRing = levels[0][0].ring
	}

	res.RingForMessage = make([]int, len(app.Messages))
	for i, m := range app.Messages {
		if clusterOf[m.Src] == clusterOf[m.Dst] {
			res.RingForMessage[i] = intraRingOf[clusterOf[m.Src]]
			continue
		}
		// Carried at the lowest level where both endpoints share a group.
		res.RingForMessage[i] = -1 // cannot happen: the terminal ring holds everyone
		for _, refs := range levels {
			for _, ref := range refs {
				if ref.members[m.Src] && ref.members[m.Dst] {
					res.RingForMessage[i] = ref.ring.ID
					break
				}
			}
			if res.RingForMessage[i] >= 0 {
				break
			}
		}
		if rid := res.RingForMessage[i]; rid >= 0 && res.Rings[rid].Level >= 2 {
			res.Escalated++
		}
	}
	res.Levels = 1 + len(upper)
	return res
}

// poolWithin returns the pool messages (by index) whose endpoints both lie
// in set, in message order.
func poolWithin(app *netlist.Application, pool []int, set map[netlist.NodeID]bool) []netlist.Message {
	var out []netlist.Message
	for _, i := range pool {
		m := app.Messages[i]
		if set[m.Src] && set[m.Dst] {
			out = append(out, m)
		}
	}
	return out
}
