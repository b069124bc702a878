package pdn

import (
	"fmt"
	"sort"

	"sring/internal/geom"
	"sring/internal/netlist"
)

// TreeNode is one element of a physically routed PDN: either a 1x2 splitter
// (two children) or a leaf feeding a sender node.
type TreeNode struct {
	// Pos is the splitter's (or leaf tap's) physical location.
	Pos geom.Point
	// Node is the fed sender for leaves; -1 for internal splitters.
	Node netlist.NodeID
	// Children are nil for leaves, exactly two for splitters except for a
	// degenerate single-leaf tree.
	Children []*TreeNode
}

// IsLeaf reports whether the element feeds a sender directly.
func (t *TreeNode) IsLeaf() bool { return len(t.Children) == 0 }

// Tree is a physically routed power-distribution tree.
type Tree struct {
	Root *TreeNode
	// FeedLengthMM is the total routed waveguide length from the laser at
	// the origin corner to each sender leaf (trunk + every tree edge on the
	// way, routed rectilinearly).
	FeedLengthMM map[netlist.NodeID]float64
	// Depth is the maximum number of splitters on any laser-to-leaf route.
	Depth int
	// TotalWireMM is the routed length of the whole tree.
	TotalWireMM float64
}

// BuildTree routes a balanced splitter tree over the sender nodes: nodes
// are recursively split at the median of their wider coordinate axis, a
// splitter sits at each group's centroid, and edges are routed
// rectilinearly (L-shapes), the root trunk from the laser coupler at the
// origin corner. This realises the balanced-tree PDN of [22] physically
// instead of only counting stages.
func BuildTree(app *netlist.Application, senderNodes []netlist.NodeID) (*Tree, error) {
	if len(senderNodes) == 0 {
		return nil, fmt.Errorf("pdn: BuildTree with no sender nodes")
	}
	seen := make(map[netlist.NodeID]bool, len(senderNodes))
	for _, n := range senderNodes {
		if n < 0 || int(n) >= len(app.Nodes) {
			return nil, fmt.Errorf("pdn: sender node %d outside application", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("pdn: duplicate sender node %d", n)
		}
		seen[n] = true
	}
	ids := append([]netlist.NodeID(nil), senderNodes...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	root := buildSubtree(app, ids)
	tree := &Tree{
		Root:         root,
		FeedLengthMM: make(map[netlist.NodeID]float64, len(ids)),
	}
	trunk := geom.Point{}.Manhattan(root.Pos)
	tree.TotalWireMM = trunk
	tree.walk(root, trunk, 0)
	return tree, nil
}

// buildSubtree recursively partitions the nodes.
func buildSubtree(app *netlist.Application, ids []netlist.NodeID) *TreeNode {
	if len(ids) == 1 {
		return &TreeNode{Pos: app.Pos(ids[0]), Node: ids[0]}
	}
	pts := make([]geom.Point, len(ids))
	for i, id := range ids {
		pts[i] = app.Pos(id)
	}
	min, max := geom.BoundingBox(pts)
	// Split along the wider axis at the median.
	sorted := append([]netlist.NodeID(nil), ids...)
	if max.X-min.X >= max.Y-min.Y {
		sort.Slice(sorted, func(i, j int) bool {
			a, b := app.Pos(sorted[i]), app.Pos(sorted[j])
			if a.X != b.X {
				return a.X < b.X
			}
			return sorted[i] < sorted[j]
		})
	} else {
		sort.Slice(sorted, func(i, j int) bool {
			a, b := app.Pos(sorted[i]), app.Pos(sorted[j])
			if a.Y != b.Y {
				return a.Y < b.Y
			}
			return sorted[i] < sorted[j]
		})
	}
	mid := len(sorted) / 2
	left := buildSubtree(app, sorted[:mid])
	right := buildSubtree(app, sorted[mid:])
	// Splitter at the centroid of the group.
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	return &TreeNode{
		Pos:      geom.Pt(cx/float64(len(pts)), cy/float64(len(pts))),
		Node:     -1,
		Children: []*TreeNode{left, right},
	}
}

// walk accumulates routed lengths and depths.
func (t *Tree) walk(n *TreeNode, lengthSoFar float64, splittersSoFar int) {
	if n.IsLeaf() {
		t.FeedLengthMM[n.Node] = lengthSoFar
		if splittersSoFar > t.Depth {
			t.Depth = splittersSoFar
		}
		return
	}
	for _, c := range n.Children {
		edge := n.Pos.Manhattan(c.Pos)
		t.TotalWireMM += edge
		t.walk(c, lengthSoFar+edge, splittersSoFar+1)
	}
}

// Leaves returns the number of fed senders.
func (t *Tree) Leaves() int { return len(t.FeedLengthMM) }

// Splitters returns the number of internal 1x2 splitters in the tree.
func (t *Tree) Splitters() int {
	count := 0
	var rec func(n *TreeNode)
	rec = func(n *TreeNode) {
		if n.IsLeaf() {
			return
		}
		count++
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
	return count
}

// Segments returns the rectilinear waveguide segments of the routed tree
// (each edge as an L-shape), usable for rendering.
func (t *Tree) Segments() []geom.Segment {
	var segs []geom.Segment
	add := func(a, b geom.Point) {
		segs = append(segs, geom.LRoute(a, b).Segments()...)
	}
	add(geom.Point{}, t.Root.Pos) // the trunk from the laser at the origin
	var rec func(n *TreeNode)
	rec = func(n *TreeNode) {
		for _, c := range n.Children {
			add(n.Pos, c.Pos)
			rec(c)
		}
	}
	rec(t.Root)
	return segs
}
