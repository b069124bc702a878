// Package pdn builds the power-distribution network of a WRONoC ring
// router: the waveguide tree that carries continuous-wave laser power from
// the off-chip laser source to every sender (paper Sec. I-II, after the PDN
// design of Ortín-Obón et al. [22]).
//
// The PDN is modelled as a balanced binary splitter tree: laser power is
// split log2-many times until one feed reaches each sender node, plus an
// optional node-level splitter where a node's two senders must receive the
// same wavelengths (paper Fig. 2(c) / Fig. 3(c)). Every splitter stage
// costs the signal's laser budget SplitterStageDB (3 dB division + excess
// loss), which is what the SRing MILP minimises.
package pdn

import (
	"fmt"
	"math"

	"sring/internal/geom"
	"sring/internal/loss"
	"sring/internal/netlist"
)

// Style selects the PDN construction convention.
type Style int

const (
	// StyleShared is the PDN design the SRing paper applies to SRing,
	// ORNoC and CTORing (footnote e): one balanced distribution tree over
	// the sender nodes, with a node-level splitter only where a node's two
	// senders share wavelengths.
	StyleShared Style = iota
	// StyleXRing is XRing's own PDN: the distribution tree plus one extra
	// per-waveguide branching stage, the convention under which XRing's
	// splitter usage exceeds SRing's in the paper's Table I.
	StyleXRing
)

// String returns the style label.
func (s Style) String() string {
	switch s {
	case StyleShared:
		return "shared"
	case StyleXRing:
		return "xring"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Config controls Build.
type Config struct {
	Style Style
	// ForceNodeSplitter applies the ORNoC/CTORing convention that every
	// node's two senders are joined by a splitter regardless of wavelength
	// sharing (paper Sec. II-C).
	ForceNodeSplitter bool
	// RoutePhysical constructs the distribution tree physically (median
	// splits, rectilinear trunks; see BuildTree) and takes stage counts and
	// feed lengths from the routed tree instead of the abstract
	// ceil(log2)/direct-distance model.
	RoutePhysical bool
}

// Network is a constructed PDN.
type Network struct {
	// TreeStages is the depth of the balanced splitter tree distributing
	// laser power to the sender nodes: ceil(log2(#senderNodes)).
	TreeStages int
	// ExtraStages is the style-dependent additional branching depth.
	ExtraStages int
	// NodeSplitter marks sender nodes whose feed is split once more
	// between their two senders.
	NodeSplitter map[netlist.NodeID]bool
	// FeedLengthMM is the rectilinear distance laser power travels from
	// the source to each sender node.
	FeedLengthMM map[netlist.NodeID]float64
	// TotalSplitters is the number of 1x2 splitters fabricated: the tree
	// plus the per-node splitters.
	TotalSplitters int
	// Tree is the physically routed distribution tree when the PDN was
	// built with Config.RoutePhysical; nil otherwise.
	Tree *Tree
}

// Build constructs the PDN for the given sender nodes. nodeSplitter marks
// nodes whose senders share wavelengths (from the wavelength assignment);
// with cfg.ForceNodeSplitter, every node in twoSenderNodes gets one
// regardless.
func Build(app *netlist.Application, senderNodes []netlist.NodeID,
	twoSenderNodes map[netlist.NodeID]bool, nodeSplitter map[netlist.NodeID]bool,
	cfg Config) (*Network, error) {

	if len(senderNodes) == 0 {
		return nil, fmt.Errorf("pdn: no sender nodes")
	}
	// The laser coupler sits at the origin corner, the conventional
	// placement.
	var laser geom.Point
	seen := make(map[netlist.NodeID]bool, len(senderNodes))
	nw := &Network{
		NodeSplitter: make(map[netlist.NodeID]bool),
		FeedLengthMM: make(map[netlist.NodeID]float64),
	}
	for _, n := range senderNodes {
		if n < 0 || int(n) >= len(app.Nodes) {
			return nil, fmt.Errorf("pdn: sender node %d outside application", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("pdn: duplicate sender node %d", n)
		}
		seen[n] = true
		nw.FeedLengthMM[n] = laser.Manhattan(app.Pos(n))
	}
	nw.TreeStages = treeDepth(len(senderNodes))
	if cfg.RoutePhysical {
		tree, err := BuildTree(app, senderNodes)
		if err != nil {
			return nil, err
		}
		nw.Tree = tree
		nw.TreeStages = tree.Depth
		for n, l := range tree.FeedLengthMM {
			nw.FeedLengthMM[n] = l
		}
	}
	if cfg.Style == StyleXRing {
		nw.ExtraStages = 1
	}
	for n := range seen {
		switch {
		case cfg.ForceNodeSplitter && twoSenderNodes[n]:
			nw.NodeSplitter[n] = true
		case nodeSplitter[n]:
			if !twoSenderNodes[n] {
				return nil, fmt.Errorf("pdn: node %d marked for splitter but has a single sender", n)
			}
			nw.NodeSplitter[n] = true
		}
	}
	// A balanced binary tree delivering k feeds has k-1 internal splitters;
	// extra stages add one splitter per sender node feed; node splitters
	// add one each.
	nw.TotalSplitters = len(senderNodes) - 1 + nw.ExtraStages*len(senderNodes) + len(nw.NodeSplitter)
	return nw, nil
}

// treeDepth returns ceil(log2(k)) for k >= 1.
func treeDepth(k int) int {
	if k <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(k))))
}

// SplittersOnFeed returns the number of splitters the laser power of a
// signal sent by node n passes: the paper's per-path splitter count whose
// maximum over paths is #sp_w (Table I).
func (nw *Network) SplittersOnFeed(n netlist.NodeID) (int, error) {
	if _, ok := nw.FeedLengthMM[n]; !ok {
		return 0, fmt.Errorf("pdn: node %d is not a sender", n)
	}
	count := nw.TreeStages + nw.ExtraStages
	if nw.NodeSplitter[n] {
		count++
	}
	return count, nil
}

// FeedLossDB returns the PDN insertion loss charged to signals sent by
// node n: splitter stages plus propagation along the feed waveguide.
func (nw *Network) FeedLossDB(n netlist.NodeID, tech loss.Tech) (float64, error) {
	sp, err := nw.SplittersOnFeed(n)
	if err != nil {
		return 0, err
	}
	return float64(sp)*tech.SplitterStageDB() + nw.FeedLengthMM[n]*tech.PropagationDBPerMM, nil
}
