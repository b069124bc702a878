package pdn

import (
	"math"
	"testing"

	"sring/internal/geom"
	"sring/internal/loss"
	"sring/internal/netlist"
)

func app(n int) *netlist.Application {
	a := &netlist.Application{Name: "t"}
	for i := 0; i < n; i++ {
		a.Nodes = append(a.Nodes, netlist.Node{ID: netlist.NodeID(i), Pos: geom.Pt(float64(i)*0.1, 0)})
	}
	return a
}

func ids(n int) []netlist.NodeID {
	out := make([]netlist.NodeID, n)
	for i := range out {
		out[i] = netlist.NodeID(i)
	}
	return out
}

func TestTreeDepths(t *testing.T) {
	// The paper's Table I splitter counts follow ceil(log2(#senders)):
	// 8 nodes -> 3, 12 -> 4, 16 -> 4, 26 -> 5.
	cases := []struct{ k, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {8, 3}, {12, 4}, {16, 4}, {26, 5},
	}
	for _, c := range cases {
		a := app(c.k)
		nw, err := Build(a, ids(c.k), nil, nil, Config{})
		if err != nil {
			t.Fatalf("k=%d: %v", c.k, err)
		}
		if nw.TreeStages != c.want {
			t.Errorf("k=%d: TreeStages = %d, want %d", c.k, nw.TreeStages, c.want)
		}
	}
}

func TestSplittersOnFeedShared(t *testing.T) {
	a := app(12)
	two := map[netlist.NodeID]bool{0: true, 1: true}
	sharing := map[netlist.NodeID]bool{0: true}
	nw, err := Build(a, ids(12), two, sharing, Config{Style: StyleShared})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 shares wavelengths across its senders: tree (4) + node (1).
	if got, _ := nw.SplittersOnFeed(0); got != 5 {
		t.Errorf("node 0 splitters = %d, want 5", got)
	}
	// Node 1 has two senders but disjoint wavelengths: tree only.
	if got, _ := nw.SplittersOnFeed(1); got != 4 {
		t.Errorf("node 1 splitters = %d, want 4", got)
	}
	// Single-sender node: tree only.
	if got, _ := nw.SplittersOnFeed(5); got != 4 {
		t.Errorf("node 5 splitters = %d, want 4", got)
	}
}

func TestForceNodeSplitter(t *testing.T) {
	// ORNoC/CTORing convention: splitter at every two-sender node even
	// without sharing.
	a := app(12)
	two := map[netlist.NodeID]bool{}
	for i := 0; i < 12; i++ {
		two[netlist.NodeID(i)] = true
	}
	nw, err := Build(a, ids(12), two, nil, Config{ForceNodeSplitter: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if got, _ := nw.SplittersOnFeed(netlist.NodeID(i)); got != 5 {
			t.Errorf("node %d splitters = %d, want 5 (= ceil(log2 12) + 1)", i, got)
		}
	}
}

func TestXRingStyleExtraStage(t *testing.T) {
	a := app(8)
	two := map[netlist.NodeID]bool{3: true}
	sharing := map[netlist.NodeID]bool{3: true}
	nw, err := Build(a, ids(8), two, sharing, Config{Style: StyleXRing})
	if err != nil {
		t.Fatal(err)
	}
	// tree (3) + extra (1) + node (1) = 5, matching XRing's 8PM rows.
	if got, _ := nw.SplittersOnFeed(3); got != 5 {
		t.Errorf("sharing node splitters = %d, want 5", got)
	}
	if got, _ := nw.SplittersOnFeed(0); got != 4 {
		t.Errorf("plain node splitters = %d, want 4", got)
	}
}

func TestBuildErrors(t *testing.T) {
	a := app(4)
	if _, err := Build(a, nil, nil, nil, Config{}); err == nil {
		t.Error("empty sender set accepted")
	}
	if _, err := Build(a, []netlist.NodeID{9}, nil, nil, Config{}); err == nil {
		t.Error("out-of-range sender accepted")
	}
	if _, err := Build(a, []netlist.NodeID{1, 1}, nil, nil, Config{}); err == nil {
		t.Error("duplicate sender accepted")
	}
	// Splitter on single-sender node is a modelling error.
	if _, err := Build(a, ids(4), nil, map[netlist.NodeID]bool{0: true}, Config{}); err == nil {
		t.Error("splitter on single-sender node accepted")
	}
}

func TestSplittersOnFeedUnknownNode(t *testing.T) {
	a := app(4)
	nw, err := Build(a, ids(4), nil, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.SplittersOnFeed(9); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := nw.FeedLossDB(9, loss.Default()); err == nil {
		t.Error("unknown node accepted by FeedLossDB")
	}
}

func TestFeedLossDB(t *testing.T) {
	a := app(2) // node 1 at (0.1, 0); laser at origin
	nw, err := Build(a, ids(2), nil, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tech := loss.Default()
	got, err := nw.FeedLossDB(1, tech)
	if err != nil {
		t.Fatal(err)
	}
	want := 1*tech.SplitterStageDB() + 0.1*tech.PropagationDBPerMM
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("FeedLossDB = %v, want %v", got, want)
	}
}

func TestTotalSplitters(t *testing.T) {
	a := app(8)
	two := map[netlist.NodeID]bool{0: true, 1: true}
	sharing := map[netlist.NodeID]bool{0: true, 1: true}
	nw, err := Build(a, ids(8), two, sharing, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Tree: 7 internal splitters for 8 leaves; plus 2 node splitters.
	if nw.TotalSplitters != 9 {
		t.Errorf("TotalSplitters = %d, want 9", nw.TotalSplitters)
	}
}

func TestStyleString(t *testing.T) {
	if StyleShared.String() != "shared" || StyleXRing.String() != "xring" {
		t.Error("style strings wrong")
	}
	if Style(7).String() != "Style(7)" {
		t.Error("unknown style string wrong")
	}
}

// The laser coupler sits at the origin corner, so each sender's feed is
// its Manhattan distance from (0, 0).
func TestLaserPosition(t *testing.T) {
	a := app(2)
	a.Nodes[1].Pos = geom.Pt(1, 0.5)
	nw, err := Build(a, ids(2), nil, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if nw.FeedLengthMM[0] != 0 || math.Abs(nw.FeedLengthMM[1]-1.5) > 1e-12 {
		t.Errorf("feed lengths %v, want 0 and 1.5 from the origin", nw.FeedLengthMM)
	}
}
