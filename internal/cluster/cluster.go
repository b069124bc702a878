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
	// InterRingMax bounds how many nodes the classic single inter-ring
	// construction is attempted for. When more nodes than this carry
	// escalated traffic, the escalation set is recursively partitioned
	// into a further level of sub-rings (clusters of clusters) instead of
	// being forced onto one ring. Zero means 32, comfortably above the
	// ≤26-node paper benchmarks, which therefore always take the paper's
	// exact two-level construction.
	InterRingMax int
	// MaxLevels caps the hierarchy depth, counting the cluster level.
	// Zero means 8.
	MaxLevels int
	// Obs, when non-nil, is the parent span under which the construction
	// records its telemetry: the L_max binary search (one child span per
	// evaluated bound with its feasibility verdict), absorption-step
	// counters, and the final cluster/ring counts.
	Obs *obs.Span
	// Registry receives aggregate telemetry: cluster.probe.ns, the
	// distribution of per-candidate feasibility-probe times across runs.
	// Nil means the process-wide obs.Default() registry.
	Registry *obs.Registry
}

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
	iters := sp.Recorder().Counter("cluster.search.iterations")
	absorb := sp.Recorder().Counter("cluster.absorptions")

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

	// tryBound evaluates one L_max candidate inline (the sequential path,
	// also used for the fallback bounds below).
	cfg := opt.hierConfig()
	probeH := obs.OrDefault(opt.Registry).Histogram("cluster.probe.ns")
	tryBound := func(lmax float64) *Result {
		probeStart := time.Now()
		sol := buildSolution(app, adj, lmax, opt.MaxInitialTrials, absorb, cfg)
		probeH.RecordSince(probeStart)
		recordBound(lmax, sol)
		return sol
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
		pb = newProber(app, adj, opt.MaxInitialTrials, cfg, valueAt, workers, probeH)
		defer pb.close(sp.Recorder())
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
			var absorbs int64
			sol, absorbs = pb.get(mid)
			absorb.Add(absorbs)
			recordBound(lmax, sol)
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
	// Aggregate hierarchy telemetry, recorded once from the selected
	// solution so the counters are deterministic at any Parallelism:
	// cluster.level.depth   — hierarchy depth distribution across runs;
	// cluster.level.rings   — inter rings above level 1 (0 for the paper's
	//                         two-level shape);
	// cluster.level.escalated — messages carried above level 1.
	reg := obs.OrDefault(opt.Registry)
	reg.Histogram("cluster.level.depth").Record(int64(best.Levels))
	deep := 0
	for _, r := range best.Rings {
		if r.Level >= 2 {
			deep++
		}
	}
	reg.Counter("cluster.level.rings").Add(int64(deep))
	reg.Counter("cluster.level.escalated").Add(int64(best.Escalated))
	return best, nil
}

// conventionalRingBound returns d2: the longest signal path if all active
// nodes are connected sequentially as in a conventional dual-direction ring
// router, taking each message's shorter direction.
func conventionalRingBound(app *netlist.Application) float64 {
	order := app.ActiveNodes()
	cw := &ring.Ring{ID: 0, Order: order}
	ccw := cw.Reversed()
	var worst float64
	for _, m := range app.Messages {
		a, err1 := cw.PathLength(app, m.Src, m.Dst)
		b, err2 := ccw.PathLength(app, m.Src, m.Dst)
		if err1 != nil || err2 != nil {
			continue // inactive endpoints cannot occur: both sides messaged
		}
		if l := math.Min(a, b); l > worst {
			worst = l
		}
	}
	return worst
}

// ringScratch is reusable scratch for ring-order evaluation and absorption:
// a NodeID-indexed position table (Application.Validate guarantees dense
// IDs) holding -1 for every node off the ring being evaluated, plus the
// buffers of ringOrderLongest and bestAbsorption. Users restore the table
// to all -1 after each use, so one scratch serves a whole sub-ring growth
// without reallocating. Not safe for concurrent use.
type ringScratch struct {
	pos    []int
	prefix []float64

	// bestAbsorption's buffers.
	cands      []netlist.NodeID
	cTo, cFrom [][]int
	msgs       []netlist.Message
	trial      []netlist.NodeID
	abs        absorbScratch
}

func newRingScratch(app *netlist.Application) *ringScratch {
	pos := make([]int, len(app.Nodes))
	for i := range pos {
		pos[i] = -1
	}
	return &ringScratch{pos: pos}
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

// growCluster grows an intra-cluster sub-ring from the initial vertex under
// lmax, absorbing communication-adjacent available vertices. A vertex with
// no available neighbours yields a singleton (order nil).
func growCluster(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID,
	initial netlist.NodeID, avail map[netlist.NodeID]bool, lmax float64, absorb *obs.Counter) grown {

	members := map[netlist.NodeID]bool{initial: true}
	// Nearest available communication partner forms the initial cluster.
	var nearest netlist.NodeID = -1
	bestDist := math.Inf(1)
	for _, u := range adj[initial] {
		if !avail[u] {
			continue
		}
		d := app.Pos(initial).Manhattan(app.Pos(u))
		if d < bestDist || (d == bestDist && (nearest < 0 || u < nearest)) {
			nearest, bestDist = u, d
		}
	}
	if nearest < 0 {
		return grown{members: members}
	}
	members[nearest] = true
	order := []netlist.NodeID{initial, nearest}
	rs := newRingScratch(app)
	longest, _ := ringOrderLongest(app, order, messagesWithin(app, members), rs)
	if longest > lmax {
		// Cannot even pair with the nearest partner: singleton. (Possible
		// only for L_max below d1, which the search range excludes, but we
		// guard anyway.)
		return grown{members: map[netlist.NodeID]bool{initial: true}}
	}

	candidates := make(map[netlist.NodeID]bool)
	addCandidates := func(v netlist.NodeID) {
		for _, u := range adj[v] {
			if avail[u] && !members[u] {
				candidates[u] = true
			}
		}
	}
	addCandidates(initial)
	addCandidates(nearest)

	for len(candidates) > 0 {
		order2, longest2, cand, ok := bestAbsorption(app, order, candidates, lmax, rs)
		if !ok {
			break
		}
		order = order2
		longest = longest2
		members[cand] = true
		absorb.Add(1)
		delete(candidates, cand)
		addCandidates(cand)
		for u := range candidates {
			if members[u] {
				delete(candidates, u)
			}
		}
	}
	return grown{order: order, members: members, longest: longest}
}

// hierConfig resolves the multi-level options for buildSolution.
type hierConfig struct {
	interMax  int // escalation sets larger than this recurse into another level
	maxLevels int // hierarchy depth cap, counting the cluster level
}

func (o Options) hierConfig() hierConfig {
	cfg := hierConfig{interMax: o.InterRingMax, maxLevels: o.MaxLevels}
	if cfg.interMax == 0 {
		cfg.interMax = defaultInterRingMax
	}
	if cfg.maxLevels == 0 {
		cfg.maxLevels = defaultMaxLevels
	}
	return cfg
}

// defaultInterRingMax is comfortably above the ≤26-node paper benchmarks, so
// they always take the paper's exact two-level construction; the 64-node
// scale apps typically do too, while 128 nodes and up recurse.
const (
	defaultInterRingMax = 32
	defaultMaxLevels    = 8
)

// levelGroups is one escalation level of the hierarchy: the indices of the
// messages that reached it (not carried by any lower level) and the node
// groups, each with its grown sub-ring, formed there.
type levelGroups struct {
	pool   []int
	groups []grown
}

// growLevel partitions the given node set into grown sub-rings under lmax:
// rounds of trying each available vertex as the initial vertex and keeping
// the best grown ring (the paper's cluster-formation loop, reused verbatim
// at every hierarchy level).
func growLevel(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID,
	nodes map[netlist.NodeID]bool, lmax float64, maxTrials int, absorb *obs.Counter) []grown {

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

		// Try each available vertex as the initial vertex; keep the grown
		// cluster with the shortest longest signal path (ties: larger
		// cluster, then smaller initial ID). MaxInitialTrials caps the
		// candidate set for large networks.
		trials := sampleTrials(ids, maxTrials)
		var best grown
		haveBest := false
		for _, v := range trials {
			g := growCluster(app, adj, v, avail, lmax, absorb)
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

// buildSolution attempts a full clustering under lmax. It returns nil if
// the escalation levels cannot all be closed (the paper's "invalid
// solution": move L_max to its right child).
//
// Level 0 is the paper's cluster formation over all active nodes. Messages
// crossing clusters escalate to level 1; while the escalated node set is
// larger than cfg.interMax the set is recursively partitioned into another
// level of sub-rings by the same absorption growth (clusters of clusters),
// with the messages still crossing groups escalating further. Once the set
// fits — or the recursion stops making progress or hits cfg.maxLevels — a
// single terminal ring over all remaining nodes closes the hierarchy, the
// paper's inter-ring construction verbatim. Every node therefore sends on
// at most one ring per level it appears in, the multi-level extension of
// the paper's ≤2-senders invariant.
func buildSolution(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID, lmax float64, maxTrials int, absorb *obs.Counter, cfg hierConfig) *Result {
	active := make(map[netlist.NodeID]bool)
	for _, id := range app.ActiveNodes() {
		active[id] = true
	}
	clusters := growLevel(app, adj, active, lmax, maxTrials, absorb)
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
		if len(nodes) <= cfg.interMax || level >= cfg.maxLevels {
			order := buildInterRing(app, nodes, lmax, maxTrials, absorb)
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
		// Too many escalated nodes for one ring: partition them into a
		// further level of sub-rings and escalate what still crosses.
		groups := growLevel(app, adj, nodes, lmax, maxTrials, absorb)
		groupOf := groupIndex(groups)
		var next []int
		for _, i := range pool {
			m := app.Messages[i]
			if groupOf[m.Src] != groupOf[m.Dst] {
				next = append(next, i)
			}
		}
		if len(next) == len(pool) {
			// No message was absorbed at this level: grouping made no
			// progress, so fall back to the terminal single ring.
			order := buildInterRing(app, nodes, lmax, maxTrials, absorb)
			if order == nil {
				return nil
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

	return assembleResult(app, clusters, clusterOf, upper)
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

// buildInterRing constructs the inter-cluster sub-ring over all interNodes.
// Every node in the set must be absorbed; each is tried as the initial
// vertex and the valid ring with the shortest longest path wins. Returns
// nil if no initial vertex yields a valid complete ring.
func buildInterRing(app *netlist.Application, interNodes map[netlist.NodeID]bool, lmax float64, maxTrials int, absorb *obs.Counter) []netlist.NodeID {
	ids := make([]netlist.NodeID, 0, len(interNodes))
	for id := range interNodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) < 2 {
		return nil
	}

	interMsgs := make(map[netlist.NodeID][]netlist.NodeID) // adjacency in the inter graph
	for _, m := range app.Messages {
		if interNodes[m.Src] && interNodes[m.Dst] {
			interMsgs[m.Src] = append(interMsgs[m.Src], m.Dst)
			interMsgs[m.Dst] = append(interMsgs[m.Dst], m.Src)
		}
	}

	trials := ids
	if maxTrials > 0 && len(trials) > maxTrials {
		sampled := make([]netlist.NodeID, 0, maxTrials)
		step := float64(len(trials)) / float64(maxTrials)
		for k := 0; k < maxTrials; k++ {
			sampled = append(sampled, trials[int(float64(k)*step)])
		}
		trials = sampled
	}
	var bestOrder []netlist.NodeID
	bestLongest := math.Inf(1)
	for _, v := range trials {
		order, longest, ok := growInter(app, interMsgs, v, ids, lmax, absorb)
		if ok && longest < bestLongest {
			bestOrder, bestLongest = order, longest
		}
	}
	return bestOrder
}

// growInter grows the inter ring from initial, absorbing adjacent inter
// nodes first and falling back to the remaining ones, until all inter nodes
// are on the ring or no valid absorption exists.
func growInter(app *netlist.Application, adj map[netlist.NodeID][]netlist.NodeID,
	initial netlist.NodeID, all []netlist.NodeID, lmax float64, absorb *obs.Counter) ([]netlist.NodeID, float64, bool) {

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
	rs := newRingScratch(app)
	longest, _ := ringOrderLongest(app, order, messagesWithin(app, members), rs)
	if longest > lmax {
		return nil, 0, false
	}

	for len(remaining) > 0 {
		// Candidates: remaining nodes adjacent to a member; if none, all
		// remaining (the inter graph may be disconnected, but a single
		// ring must still carry everything).
		candidates := make(map[netlist.NodeID]bool)
		for m := range members {
			for _, u := range adj[m] {
				if remaining[u] {
					candidates[u] = true
				}
			}
		}
		if len(candidates) == 0 {
			for u := range remaining {
				candidates[u] = true
			}
		}
		order2, longest2, cand, ok := bestAbsorption(app, order, candidates, lmax, rs)
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

// assembleResult freezes clusters and the escalation levels into a Result,
// fixing each ring's direction to the one minimising its longest signal
// path over the messages it carries.
func assembleResult(app *netlist.Application, clusters []grown, clusterOf map[netlist.NodeID]int, upper []levelGroups) *Result {
	res := &Result{}
	rs := newRingScratch(app)
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
