package pdn

import (
	"math"
	"testing"

	"sring/internal/geom"
	"sring/internal/netlist"
)

func TestBuildTreeBasics(t *testing.T) {
	a := app(8)
	tree, err := BuildTree(a, ids(8))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() != 8 {
		t.Errorf("Leaves = %d, want 8", tree.Leaves())
	}
	// A balanced binary tree over 8 leaves has 7 splitters, depth 3.
	if tree.Splitters() != 7 {
		t.Errorf("Splitters = %d, want 7", tree.Splitters())
	}
	if tree.Depth != 3 {
		t.Errorf("Depth = %d, want 3", tree.Depth)
	}
	if tree.TotalWireMM <= 0 {
		t.Error("TotalWireMM not positive")
	}
}

func TestBuildTreeDepthMatchesStageCount(t *testing.T) {
	// The routed tree's depth must equal the abstract TreeStages count used
	// by Build for every benchmark-scale size.
	for _, n := range []int{2, 3, 4, 7, 8, 12, 16, 26} {
		a := app(n)
		tree, err := BuildTree(a, ids(n))
		if err != nil {
			t.Fatal(err)
		}
		want := treeDepth(n)
		// Median splits give ceil(log2 n) depth for powers of two and at
		// most one extra level otherwise.
		if tree.Depth < want || tree.Depth > want+1 {
			t.Errorf("n=%d: Depth = %d, want %d..%d", n, tree.Depth, want, want+1)
		}
		if tree.Leaves() != n {
			t.Errorf("n=%d: Leaves = %d", n, tree.Leaves())
		}
		if tree.Splitters() != n-1 {
			t.Errorf("n=%d: Splitters = %d, want %d", n, tree.Splitters(), n-1)
		}
	}
}

func TestBuildTreeFeedLengths(t *testing.T) {
	a := app(4)
	tree, err := BuildTree(a, ids(4))
	if err != nil {
		t.Fatal(err)
	}
	for n, l := range tree.FeedLengthMM {
		// Routed feed can never beat the direct Manhattan distance.
		direct := geom.Point{}.Manhattan(a.Pos(n)) // from the laser at the origin
		if l < direct-geom.Eps {
			t.Errorf("node %d: feed %v below direct distance %v", n, l, direct)
		}
	}
}

func TestBuildTreeSingleSender(t *testing.T) {
	a := app(2)
	tree, err := BuildTree(a, []netlist.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth != 0 || tree.Splitters() != 0 || tree.Leaves() != 1 {
		t.Errorf("single-sender tree: depth=%d splitters=%d leaves=%d",
			tree.Depth, tree.Splitters(), tree.Leaves())
	}
	if math.Abs(tree.FeedLengthMM[1]-0.1) > geom.Eps {
		t.Errorf("feed length = %v, want 0.1", tree.FeedLengthMM[1])
	}
}

func TestBuildTreeErrors(t *testing.T) {
	a := app(4)
	if _, err := BuildTree(a, nil); err == nil {
		t.Error("empty sender set accepted")
	}
	if _, err := BuildTree(a, []netlist.NodeID{9}); err == nil {
		t.Error("out-of-range sender accepted")
	}
	if _, err := BuildTree(a, []netlist.NodeID{0, 0}); err == nil {
		t.Error("duplicate sender accepted")
	}
}

func TestBuildTreeSegments(t *testing.T) {
	a := app(4)
	tree, err := BuildTree(a, ids(4))
	if err != nil {
		t.Fatal(err)
	}
	segs := tree.Segments()
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	var total float64
	for _, s := range segs {
		if !s.Horizontal() && !s.Vertical() {
			t.Error("non-rectilinear PDN segment")
		}
		total += s.Length()
	}
	if math.Abs(total-tree.TotalWireMM) > 1e-9 {
		t.Errorf("segment total %v != TotalWireMM %v", total, tree.TotalWireMM)
	}
}

func TestBuildTreeDeterministic(t *testing.T) {
	a := app(12)
	t1, err := BuildTree(a, ids(12))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := BuildTree(a, ids(12))
	if err != nil {
		t.Fatal(err)
	}
	if t1.TotalWireMM != t2.TotalWireMM || t1.Depth != t2.Depth {
		t.Error("BuildTree not deterministic")
	}
	for n, l := range t1.FeedLengthMM {
		if t2.FeedLengthMM[n] != l {
			t.Errorf("feed length for %d differs", n)
		}
	}
}

func TestBuildWithPhysicalRouting(t *testing.T) {
	a := app(8)
	abstract, err := Build(a, ids(8), nil, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := Build(a, ids(8), nil, nil, Config{RoutePhysical: true})
	if err != nil {
		t.Fatal(err)
	}
	if routed.Tree == nil {
		t.Fatal("physical PDN missing tree")
	}
	if abstract.Tree != nil {
		t.Error("abstract PDN should not carry a tree")
	}
	// Routed feeds are at least as long as direct distances.
	for n, direct := range abstract.FeedLengthMM {
		if routed.FeedLengthMM[n] < direct-1e-9 {
			t.Errorf("node %d: routed feed %v below direct %v", n, routed.FeedLengthMM[n], direct)
		}
	}
	// 8 senders: both models agree on 3 stages.
	if routed.TreeStages != abstract.TreeStages {
		t.Errorf("routed stages %d != abstract %d", routed.TreeStages, abstract.TreeStages)
	}
}
