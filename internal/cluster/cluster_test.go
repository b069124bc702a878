package cluster

import (
	"math"
	"testing"

	"sring/internal/geom"
	"sring/internal/netlist"
	"sring/internal/ring"
)

// checkSolution verifies the structural invariants the paper promises:
// every message rides a ring containing both endpoints, every node has at
// most two senders (one intra + one inter), at most one inter ring, and all
// signal paths respect L_max.
func checkSolution(t *testing.T, app *netlist.Application, res *Result) {
	t.Helper()
	ringByID := make(map[int]*ring.Ring)
	inter := 0
	for _, r := range res.Rings {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid ring: %v", err)
		}
		ringByID[r.ID] = r
		if r.Kind == ring.Inter {
			inter++
		}
	}
	if inter > 1 {
		t.Fatalf("%d inter rings, want at most 1", inter)
	}
	senderRings := make(map[netlist.NodeID]map[int]bool)
	var worst float64
	for i, m := range app.Messages {
		rid := res.RingForMessage[i]
		r, ok := ringByID[rid]
		if !ok {
			t.Fatalf("message %d mapped to unknown ring %d", i, rid)
		}
		if !r.Contains(m.Src) || !r.Contains(m.Dst) {
			t.Fatalf("message %d (%d->%d) endpoints not on ring %d", i, m.Src, m.Dst, rid)
		}
		l, err := r.PathLength(app, m.Src, m.Dst)
		if err != nil {
			t.Fatal(err)
		}
		worst = math.Max(worst, l)
		if senderRings[m.Src] == nil {
			senderRings[m.Src] = make(map[int]bool)
		}
		senderRings[m.Src][rid] = true
	}
	for n, rs := range senderRings {
		if len(rs) > 2 {
			t.Errorf("node %d has senders on %d rings, want <= 2", n, len(rs))
		}
	}
	if !math.IsInf(res.Lmax, 1) && worst > res.Lmax+1e-9 {
		t.Errorf("longest path %v exceeds Lmax %v", worst, res.Lmax)
	}
	// Clusters partition the active nodes.
	seen := make(map[netlist.NodeID]bool)
	for _, c := range res.Clusters {
		for _, id := range c {
			if seen[id] {
				t.Errorf("node %d in two clusters", id)
			}
			seen[id] = true
		}
	}
	for _, id := range app.ActiveNodes() {
		if !seen[id] {
			t.Errorf("active node %d unclustered", id)
		}
	}
}

func TestSynthesizeRingApp(t *testing.T) {
	app := netlist.Ring(6)
	res, err := Synthesize(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, app, res)
	if res.D1 > res.D2 {
		t.Errorf("d1 %v > d2 %v", res.D1, res.D2)
	}
	if !math.IsInf(res.Lmax, 1) && (res.Lmax < res.D1-1e-9 || res.Lmax > res.D2+1e-9) {
		t.Errorf("Lmax %v outside [d1, d2] = [%v, %v]", res.Lmax, res.D1, res.D2)
	}
}

func TestSynthesizeClusteredWorkload(t *testing.T) {
	// Three well-separated clusters with light inter traffic: SRing must
	// find multiple intra rings plus one inter ring.
	app, err := netlist.Clustered(3, 4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, app, res)
	intra := 0
	for _, r := range res.Rings {
		if r.Kind == ring.Intra {
			intra++
		}
	}
	if intra < 2 {
		t.Errorf("only %d intra rings for a 3-cluster workload", intra)
	}
	if res.InterRing == nil {
		t.Error("inter traffic present but no inter ring")
	}
}

func TestSynthesizeAllBenchmarks(t *testing.T) {
	for _, app := range netlist.Benchmarks() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			res, err := Synthesize(app, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkSolution(t, app, res)
			if math.IsInf(res.Lmax, 1) {
				t.Errorf("%s: only the unbounded fallback succeeded", app.Name)
			}
		})
	}
}

func TestSynthesizeShortensWorstPath(t *testing.T) {
	// The headline claim: SRing's longest path beats the conventional
	// sequential ring bound d2 on the clustered MWD-style workloads.
	for _, name := range []string{"MWD", "VOPD", "D26"} {
		app, err := netlist.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Synthesize(app, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		ringByID := make(map[int]*ring.Ring)
		for _, r := range res.Rings {
			ringByID[r.ID] = r
		}
		for i, m := range app.Messages {
			l, err := ringByID[res.RingForMessage[i]].PathLength(app, m.Src, m.Dst)
			if err != nil {
				t.Fatal(err)
			}
			worst = math.Max(worst, l)
		}
		if worst >= res.D2 {
			t.Errorf("%s: SRing longest path %v does not beat sequential-ring bound %v", name, worst, res.D2)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	app := netlist.MWD()
	a, err := Synthesize(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Lmax != b.Lmax || len(a.Rings) != len(b.Rings) {
		t.Fatal("Synthesize not deterministic")
	}
	for i := range a.Rings {
		if a.Rings[i].String() != b.Rings[i].String() {
			t.Fatalf("ring %d differs across runs:\n%s\n%s", i, a.Rings[i], b.Rings[i])
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	bad := &netlist.Application{Name: "bad"}
	if _, err := Synthesize(bad, Options{}); err == nil {
		t.Error("invalid app accepted")
	}
	app := netlist.Ring(4)
	if _, err := Synthesize(app, Options{TreeHeight: 99}); err == nil {
		t.Error("absurd tree height accepted")
	}
}

func TestTreeHeightTradeoff(t *testing.T) {
	// A taller search tree can only refine L_max downward (or match).
	app := netlist.MWD()
	coarse, err := Synthesize(app, Options{TreeHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Synthesize(app, Options{TreeHeight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Lmax > coarse.Lmax+1e-9 {
		t.Errorf("finer search found larger Lmax: %v > %v", fine.Lmax, coarse.Lmax)
	}
	if coarse.Evaluated > 3 {
		t.Errorf("h=2 evaluated %d values, want <= 3", coarse.Evaluated)
	}
}

func TestRingOrderLongest(t *testing.T) {
	app := &netlist.Application{
		Nodes: []netlist.Node{
			{ID: 0, Pos: geom.Pt(0, 0)},
			{ID: 1, Pos: geom.Pt(1, 0)},
			{ID: 2, Pos: geom.Pt(1, 1)},
			{ID: 3, Pos: geom.Pt(0, 1)},
		},
	}
	order := []netlist.NodeID{0, 1, 2, 3}
	// Single message 0->3: forward goes the long way (3), reverse is 1.
	l, rev := ringOrderLongest(app, order, []netlist.Message{{Src: 0, Dst: 3}}, newRingScratch(app))
	if math.Abs(l-1) > 1e-9 || !rev {
		t.Errorf("got (%v, %v), want (1, true)", l, rev)
	}
	// Opposing messages: both directions yield max 3.
	l, _ = ringOrderLongest(app, order, []netlist.Message{{Src: 0, Dst: 3}, {Src: 3, Dst: 0}}, newRingScratch(app))
	if math.Abs(l-3) > 1e-9 {
		t.Errorf("opposing messages longest = %v, want 3", l)
	}
	// Node off the order: infeasible.
	l, _ = ringOrderLongest(app, order[:2], []netlist.Message{{Src: 0, Dst: 3}}, newRingScratch(app))
	if !math.IsInf(l, 1) {
		t.Errorf("off-ring message longest = %v, want +Inf", l)
	}
	// No messages: zero.
	if l, _ := ringOrderLongest(app, order, nil, newRingScratch(app)); l != 0 {
		t.Errorf("no-message longest = %v, want 0", l)
	}
}

func TestRingOrderLongestMatchesRingPathLength(t *testing.T) {
	// Cross-check the prefix-sum fast path against ring.PathLength.
	app := netlist.MWD()
	order := app.ActiveNodes()
	r := &ring.Ring{Order: order}
	rev := r.Reversed()
	var lf, lr float64
	for _, m := range app.Messages {
		a, err := r.PathLength(app, m.Src, m.Dst)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := rev.PathLength(app, m.Src, m.Dst)
		lf = math.Max(lf, a)
		lr = math.Max(lr, b)
	}
	want := math.Min(lf, lr)
	got, _ := ringOrderLongest(app, order, app.Messages, newRingScratch(app))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("fast path %v, reference %v", got, want)
	}
}

func TestBestAbsorptionPicksMinimalIncrease(t *testing.T) {
	// Paper Fig. 5(c)-(e): absorbing the nearby v3 (longest path 3) beats
	// absorbing the distant v5 (longest path 7) under L_max = 8.
	app := &netlist.Application{
		Nodes: []netlist.Node{
			{ID: 0, Pos: geom.Pt(0, 0)}, // v1
			{ID: 1, Pos: geom.Pt(1, 0)}, // v2
			{ID: 2, Pos: geom.Pt(2, 1)}, // v3: close
			{ID: 3, Pos: geom.Pt(0, 4)}, // v5: far
		},
		Messages: []netlist.Message{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
			{Src: 1, Dst: 2}, {Src: 3, Dst: 0},
		},
	}
	order := []netlist.NodeID{1, 0} // initial cluster {v2, v1}
	candidates := map[netlist.NodeID]bool{2: true, 3: true}
	rs := newRingScratch(app)
	newOrder, longest, cand, ok := bestAbsorption(app, order, candidates, 8, rs)
	// The scratch's position table must come back all -1: the next step
	// reads any leftover member position or candidate mark.
	for id, p := range rs.pos {
		if p != -1 {
			t.Errorf("position table left %d at node %d", p, id)
		}
	}
	if !ok {
		t.Fatal("no valid absorption found")
	}
	if cand != 2 {
		t.Errorf("absorbed %d, want 2 (the closer candidate)", cand)
	}
	if len(newOrder) != 3 {
		t.Errorf("order = %v", newOrder)
	}
	if longest >= 8 {
		t.Errorf("longest = %v, want < Lmax", longest)
	}
	// With a tight L_max, neither absorption is valid.
	_, _, _, ok = bestAbsorption(app, order, candidates, 0.5, rs)
	if ok {
		t.Error("absorption valid under impossible L_max")
	}
}

func TestGrowClusterSingleton(t *testing.T) {
	app := &netlist.Application{
		Nodes: []netlist.Node{
			{ID: 0, Pos: geom.Pt(0, 0)},
			{ID: 1, Pos: geom.Pt(1, 0)},
		},
		Messages: []netlist.Message{{Src: 0, Dst: 1}},
	}
	adj := app.Adjacency()
	// Node 0's only partner is unavailable: singleton.
	g := growCluster(app, adj, 0, map[netlist.NodeID]bool{0: true}, 10, nil)
	if g.order != nil || len(g.members) != 1 {
		t.Errorf("expected singleton, got order=%v members=%v", g.order, g.members)
	}
}

func TestConventionalRingBound(t *testing.T) {
	// 4 nodes on a unit square, one message 0->1: shorter direction is the
	// single hop of length 1.
	app := &netlist.Application{
		Nodes: []netlist.Node{
			{ID: 0, Pos: geom.Pt(0, 0)},
			{ID: 1, Pos: geom.Pt(1, 0)},
			{ID: 2, Pos: geom.Pt(1, 1)},
			{ID: 3, Pos: geom.Pt(0, 1)},
		},
		Messages: []netlist.Message{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}},
	}
	if got := conventionalRingBound(app); math.Abs(got-1) > 1e-9 {
		t.Errorf("conventionalRingBound = %v, want 1", got)
	}
}
