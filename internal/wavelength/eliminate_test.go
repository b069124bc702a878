package wavelength

import (
	"context"
	"testing"
	"time"

	"sring/internal/netlist"
	"sring/internal/ring"
)

// multiShareInfos: node 1 sends two paths on ring 0 and two on ring 1;
// other traffic occupies the low wavelengths so that eliminating the
// splitter takes coordinated recolouring.
func multiShareInfos() []PathInfo {
	return []PathInfo{
		// Node 1 on ring 0.
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 2}, RingID: 0, Segs: []int{0}}, LossDB: 4},
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 3}, RingID: 0, Segs: []int{1}}, LossDB: 4},
		// Node 1 on ring 1.
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 4}, RingID: 1, Segs: []int{0}}, LossDB: 4},
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 5}, RingID: 1, Segs: []int{1}}, LossDB: 4},
		// Background traffic pinning segments on both rings.
		{Path: ring.Path{Msg: netlist.Message{Src: 6, Dst: 7}, RingID: 0, Segs: []int{0, 1}}, LossDB: 4.2},
		{Path: ring.Path{Msg: netlist.Message{Src: 8, Dst: 9}, RingID: 1, Segs: []int{0, 1}}, LossDB: 4.2},
	}
}

func TestResolveNodeDisjointsWavelengths(t *testing.T) {
	infos := multiShareInfos()
	adj := conflictAdj(infos)
	// Shared assignment: node 1 uses λ0 and λ1 on both rings.
	a := &Assignment{Lambda: []int{0, 1, 0, 1, 2, 2}, NumLambda: 3}
	if err := Verify(infos, a); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	if sp := NodeSplitters(infos, a); !sp[1] {
		t.Fatal("fixture should need a splitter at node 1")
	}
	if !resolveNode(infos, a, adj, 1) {
		t.Fatal("resolveNode failed on a resolvable instance")
	}
	if err := Verify(infos, a); err != nil {
		t.Fatalf("resolution broke the assignment: %v", err)
	}
	if sp := NodeSplitters(infos, a); sp[1] {
		t.Errorf("splitter still needed after resolution: %v (lambda %v)", sp, a.Lambda)
	}
}

func TestResolveNodeSingleRingNoop(t *testing.T) {
	infos := disjointInfos(3)
	adj := conflictAdj(infos)
	a := &Assignment{Lambda: []int{0, 0, 0}, NumLambda: 1}
	if !resolveNode(infos, a, adj, infos[0].SenderNode()) {
		t.Error("single-ring sender should trivially resolve")
	}
}

func TestEliminateSplittersEndToEnd(t *testing.T) {
	infos := multiShareInfos()
	adj := conflictAdj(infos)
	w := DefaultWeights()
	start := &Assignment{Lambda: []int{0, 1, 0, 1, 2, 2}, NumLambda: 3}
	cand, obj, ok := eliminateSplitters(infos, newEvaluator(infos), start, adj, w)
	if !ok {
		t.Fatal("eliminateSplitters made no progress")
	}
	if obj.Splitters != 0 {
		t.Errorf("splitters remain: %+v", obj)
	}
	if err := Verify(infos, cand); err != nil {
		t.Fatal(err)
	}
	// No splitters at all: early-out branch.
	clean := &Assignment{Lambda: []int{0, 1, 2, 3, 4, 5}, NumLambda: 6}
	if _, _, ok := eliminateSplitters(infos, newEvaluator(infos), clean, adj, w); ok {
		t.Error("splitter-free assignment should report no progress")
	}
}

func TestImproveFromSharedStart(t *testing.T) {
	// The full Improve pipeline must reach a splitter-free solution from
	// the adversarial shared start.
	infos := multiShareInfos()
	w := DefaultWeights()
	start := &Assignment{Lambda: []int{0, 1, 0, 1, 2, 2}, NumLambda: 3}
	out := Improve(infos, start, w)
	if err := Verify(infos, out); err != nil {
		t.Fatal(err)
	}
	if o := Evaluate(infos, out, w); o.Splitters != 0 {
		t.Errorf("Improve left %d splitters (lambda %v)", o.Splitters, out.Lambda)
	}
}

func TestSolveMILPNoSolutionWithinLimits(t *testing.T) {
	// A tiny time budget with no incumbent: the solver may return no
	// assignment; Assign must then fall back to the heuristic.
	infos := cliqueInfos(4)
	a, _, err := SolveMILP(context.Background(), infos, 4, DefaultWeights(), nil, 1, 1, nil)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	// Either a real assignment or nil are acceptable; nil must not panic
	// downstream.
	if a != nil {
		if err := Verify(infos, a); err != nil {
			t.Fatal(err)
		}
	}
}

// Regression: a node sending on three rings (XRing base pair + chord) must
// be expressible in the MILP — the generalised Eq. 4 admits full sharing
// once the splitter binary is set.
func TestSolveMILPThreeRingSender(t *testing.T) {
	infos := []PathInfo{
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 2}, RingID: 0, Segs: []int{0}}, LossDB: 4},
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 3}, RingID: 1, Segs: []int{0}}, LossDB: 4},
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 4}, RingID: 2, Segs: []int{0}}, LossDB: 4},
	}
	// Incumbent shares one wavelength across all three senders.
	inc := &Assignment{Lambda: []int{0, 0, 0}, NumLambda: 1}
	if err := Verify(infos, inc); err != nil {
		t.Fatal(err)
	}
	a, info, err := SolveMILP(context.Background(), infos, 3, DefaultWeights(), inc, 30*time.Second, 1, nil)
	if err != nil {
		t.Fatalf("MILP rejected a 3-ring sender: %v", err)
	}
	if !info.Exact {
		t.Error("tiny instance should solve to optimality")
	}
	if err := Verify(infos, a); err != nil {
		t.Fatal(err)
	}
	// The Eq. 8 optimum here keeps the shared wavelength: one wavelength
	// plus one splitter (1 + 7.3 + 7.3 = 15.6) beats three wavelengths
	// (3 + 4 + 12 = 19). Check against exhaustive search.
	got := Evaluate(infos, a, DefaultWeights()).Value
	want := bruteForce(infos, 3, DefaultWeights())
	if got > want+1e-6 {
		t.Errorf("MILP objective %v, brute force %v", got, want)
	}
}
