package wavelength

import (
	"context"
	"math"
	"testing"
	"time"

	"sring/internal/netlist"
	"sring/internal/ring"
)

// chainInfos builds k paths on one ring that all overlap pairwise on
// segment 0 (a clique: needs k wavelengths).
func cliqueInfos(k int) []PathInfo {
	infos := make([]PathInfo, k)
	for i := 0; i < k; i++ {
		infos[i] = PathInfo{
			Path: ring.Path{
				Msg:    netlist.Message{Src: netlist.NodeID(i + 10), Dst: netlist.NodeID(99)},
				RingID: 0,
				Segs:   []int{0, i + 1}, // all share segment 0
			},
			LossDB: 4 + 0.1*float64(i),
		}
	}
	return infos
}

// disjointInfos builds k paths with pairwise disjoint arcs (1 wavelength
// suffices).
func disjointInfos(k int) []PathInfo {
	infos := make([]PathInfo, k)
	for i := 0; i < k; i++ {
		infos[i] = PathInfo{
			Path: ring.Path{
				Msg:    netlist.Message{Src: netlist.NodeID(i), Dst: netlist.NodeID(50 + i)},
				RingID: 0,
				Segs:   []int{i},
			},
			LossDB: 4,
		}
	}
	return infos
}

func TestDSATURClique(t *testing.T) {
	infos := cliqueInfos(5)
	a := DSATUR(infos)
	if a.NumLambda != 5 {
		t.Errorf("clique of 5 coloured with %d wavelengths, want 5", a.NumLambda)
	}
	if err := Verify(infos, a); err != nil {
		t.Errorf("invalid DSATUR assignment: %v", err)
	}
}

func TestDSATURDisjoint(t *testing.T) {
	infos := disjointInfos(6)
	a := DSATUR(infos)
	if a.NumLambda != 1 {
		t.Errorf("disjoint paths coloured with %d wavelengths, want 1", a.NumLambda)
	}
	if err := Verify(infos, a); err != nil {
		t.Errorf("invalid assignment: %v", err)
	}
}

func TestDSATUROddCycle(t *testing.T) {
	// 5-cycle conflict structure: paths i and i+1 share a segment. Needs 3.
	infos := make([]PathInfo, 5)
	for i := 0; i < 5; i++ {
		infos[i] = PathInfo{
			Path: ring.Path{
				Msg:    netlist.Message{Src: netlist.NodeID(i), Dst: netlist.NodeID(20 + i)},
				RingID: 0,
				Segs:   []int{i, (i + 1) % 5},
			},
			LossDB: 4,
		}
	}
	a := DSATUR(infos)
	if err := Verify(infos, a); err != nil {
		t.Fatalf("invalid assignment: %v", err)
	}
	if a.NumLambda != 3 {
		t.Errorf("odd cycle coloured with %d wavelengths, want 3", a.NumLambda)
	}
}

func TestVerifyCatchesCollision(t *testing.T) {
	infos := cliqueInfos(2)
	bad := &Assignment{Lambda: []int{0, 0}, NumLambda: 1}
	if err := Verify(infos, bad); err == nil {
		t.Error("Verify accepted colliding assignment")
	}
	short := &Assignment{Lambda: []int{0}, NumLambda: 1}
	if err := Verify(infos, short); err == nil {
		t.Error("Verify accepted short assignment")
	}
	oor := &Assignment{Lambda: []int{0, 5}, NumLambda: 2}
	if err := Verify(infos, oor); err == nil {
		t.Error("Verify accepted out-of-range wavelength")
	}
}

func TestNormalize(t *testing.T) {
	a := &Assignment{Lambda: []int{7, 3, 7, 9}, NumLambda: 10}
	a.Normalize()
	if a.NumLambda != 3 {
		t.Errorf("NumLambda = %d, want 3", a.NumLambda)
	}
	want := []int{0, 1, 0, 2}
	for i, l := range a.Lambda {
		if l != want[i] {
			t.Errorf("Lambda = %v, want %v", a.Lambda, want)
			break
		}
	}
}

// twoSenderInfos: node 1 sends on rings 0 and 1; paths can avoid sharing a
// wavelength, so an optimal assignment needs no splitter.
func twoSenderInfos() []PathInfo {
	return []PathInfo{
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 2}, RingID: 0, Segs: []int{0}}, LossDB: 4},
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 3}, RingID: 1, Segs: []int{0}}, LossDB: 4},
	}
}

func TestNodeSplitters(t *testing.T) {
	infos := twoSenderInfos()
	shared := &Assignment{Lambda: []int{0, 0}, NumLambda: 1}
	sp := NodeSplitters(infos, shared)
	if !sp[1] {
		t.Error("sharing senders should need a splitter")
	}
	disjoint := &Assignment{Lambda: []int{0, 1}, NumLambda: 2}
	sp = NodeSplitters(infos, disjoint)
	if sp[1] {
		t.Error("disjoint wavelength sets should not need a splitter")
	}
	// Single-sender node never needs one.
	single := disjointInfos(2)
	sp = NodeSplitters(single, &Assignment{Lambda: []int{0, 0}, NumLambda: 1})
	if len(sp) != 0 {
		t.Errorf("single-sender nodes flagged: %v", sp)
	}
}

func TestEvaluateComponents(t *testing.T) {
	infos := twoSenderInfos()
	w := DefaultWeights()
	shared := &Assignment{Lambda: []int{0, 0}, NumLambda: 1}
	o := Evaluate(infos, shared, w)
	if o.NumLambda != 1 || o.Splitters != 1 {
		t.Errorf("shared: %+v", o)
	}
	// Both paths lose L_s + L_sp = 7.3.
	if math.Abs(o.WorstIL-7.3) > 1e-9 || math.Abs(o.SumPerLambda-7.3) > 1e-9 {
		t.Errorf("shared IL: %+v", o)
	}
	if math.Abs(o.Value-(1*1+1*7.3+1*7.3)) > 1e-9 {
		t.Errorf("shared value = %v", o.Value)
	}

	disjoint := &Assignment{Lambda: []int{0, 1}, NumLambda: 2}
	o = Evaluate(infos, disjoint, w)
	if o.NumLambda != 2 || o.Splitters != 0 {
		t.Errorf("disjoint: %+v", o)
	}
	if math.Abs(o.WorstIL-4) > 1e-9 || math.Abs(o.SumPerLambda-8) > 1e-9 {
		t.Errorf("disjoint IL: %+v", o)
	}
}

// The splitter trade: Improve must discover that separating the two senders
// onto different wavelengths beats sharing (7.3+7.3+1 = 15.6 vs 2+4+8 = 14).
func TestImproveRemovesSplitter(t *testing.T) {
	infos := twoSenderInfos()
	w := DefaultWeights()
	start := &Assignment{Lambda: []int{0, 0}, NumLambda: 1}
	improved := Improve(infos, start, w)
	if err := Verify(infos, improved); err != nil {
		t.Fatalf("Improve produced invalid assignment: %v", err)
	}
	o := Evaluate(infos, improved, w)
	if o.Splitters != 0 {
		t.Errorf("Improve kept the splitter: %+v (lambda %v)", o, improved.Lambda)
	}
	if o.Value >= Evaluate(infos, start, w).Value {
		t.Errorf("Improve did not improve: %v", o.Value)
	}
	// Input untouched.
	if start.Lambda[0] != 0 || start.Lambda[1] != 0 {
		t.Error("Improve mutated its input")
	}
}

func TestImproveNeverWorsens(t *testing.T) {
	infos := cliqueInfos(4)
	w := DefaultWeights()
	start := DSATUR(infos)
	before := Evaluate(infos, start, w)
	after := Evaluate(infos, Improve(infos, start, w), w)
	if after.Value > before.Value+1e-9 {
		t.Errorf("Improve worsened objective: %v -> %v", before.Value, after.Value)
	}
}

func TestAssignHeuristicOnly(t *testing.T) {
	infos := cliqueInfos(3)
	a, stats, err := Assign(infos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(infos, a); err != nil {
		t.Fatal(err)
	}
	if stats.MILPRan {
		t.Error("MILP ran without UseMILP")
	}
	if a.NumLambda != 3 {
		t.Errorf("NumLambda = %d, want 3 (clique)", a.NumLambda)
	}
}

func TestAssignEmpty(t *testing.T) {
	if _, _, err := Assign(nil, Options{}); err == nil {
		t.Error("Assign accepted empty path set")
	}
}

func TestSolveMILPMatchesCliqueBound(t *testing.T) {
	infos := cliqueInfos(3)
	w := DefaultWeights()
	inc := DSATUR(infos)
	a, info, err := SolveMILP(context.Background(), infos, 3, w, inc, 30*time.Second, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Exact {
		t.Error("small MILP should prove optimality")
	}
	if err := Verify(infos, a); err != nil {
		t.Fatal(err)
	}
	if a.NumLambda != 3 {
		t.Errorf("MILP used %d wavelengths, want 3", a.NumLambda)
	}
}

func TestSolveMILPRemovesSplitter(t *testing.T) {
	infos := twoSenderInfos()
	w := DefaultWeights()
	a, info, err := SolveMILP(context.Background(), infos, 2, w, nil, 30*time.Second, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Exact {
		t.Error("tiny MILP should prove optimality")
	}
	sp := NodeSplitters(infos, a)
	if len(sp) != 0 {
		t.Errorf("MILP optimum should avoid the splitter, got %v (lambda %v)", sp, a.Lambda)
	}
}

func TestSolveMILPInfeasiblePalette(t *testing.T) {
	infos := cliqueInfos(3)
	if _, _, err := SolveMILP(context.Background(), infos, 2, DefaultWeights(), nil, 10*time.Second, 1, nil); err == nil {
		t.Error("3-clique with 2 wavelengths should be infeasible")
	}
	if _, _, err := SolveMILP(context.Background(), infos, 0, DefaultWeights(), nil, 0, 1, nil); err == nil {
		t.Error("numLambda = 0 accepted")
	}
	big := &Assignment{Lambda: []int{0, 1, 2}, NumLambda: 3}
	if _, _, err := SolveMILP(context.Background(), infos, 2, DefaultWeights(), big, 0, 1, nil); err == nil {
		t.Error("incumbent larger than palette accepted")
	}
}

func TestAssignWithMILPAgreesOrImproves(t *testing.T) {
	infos := cliqueInfos(3)
	w := DefaultWeights()
	aH, _, err := Assign(infos, Options{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	aM, stats, err := Assign(infos, Options{Weights: w, UseMILP: true, MILPTimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.MILPRan {
		t.Fatal("MILP did not run on a tiny instance")
	}
	oh := Evaluate(infos, aH, w)
	om := Evaluate(infos, aM, w)
	if om.Value > oh.Value+1e-9 {
		t.Errorf("MILP result worse than heuristic: %v > %v", om.Value, oh.Value)
	}
}

func TestAssignDeterministic(t *testing.T) {
	infos := cliqueInfos(6)
	a1, _, err := Assign(infos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := Assign(infos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Lambda {
		if a1.Lambda[i] != a2.Lambda[i] {
			t.Fatal("Assign not deterministic")
		}
	}
}

// Mixed scenario resembling a real sub-ring design: two rings, some paths
// overlapping, one two-sender node. End-to-end Assign must produce a valid,
// splitter-light assignment.
func TestAssignMixedScenario(t *testing.T) {
	infos := []PathInfo{
		// Ring 0 (intra): chain overlaps.
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 2}, RingID: 0, Segs: []int{0, 1}}, LossDB: 4.1},
		{Path: ring.Path{Msg: netlist.Message{Src: 2, Dst: 3}, RingID: 0, Segs: []int{1, 2}}, LossDB: 4.2},
		{Path: ring.Path{Msg: netlist.Message{Src: 3, Dst: 1}, RingID: 0, Segs: []int{2, 3}}, LossDB: 4.0},
		// Ring 1 (inter): node 1 sends here too.
		{Path: ring.Path{Msg: netlist.Message{Src: 1, Dst: 9}, RingID: 1, Segs: []int{0}}, LossDB: 4.5},
		{Path: ring.Path{Msg: netlist.Message{Src: 9, Dst: 1}, RingID: 1, Segs: []int{1}}, LossDB: 4.4},
	}
	a, stats, err := Assign(infos, Options{UseMILP: true, MILPTimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(infos, a); err != nil {
		t.Fatal(err)
	}
	o := Evaluate(infos, a, DefaultWeights())
	if o.Splitters != 0 {
		t.Errorf("splitter avoidable but used: %+v lambda=%v", o, a.Lambda)
	}
	if stats.Final.Value > stats.Heuristic.Value+1e-9 {
		t.Error("final worse than heuristic")
	}
}

func TestDefaultWeights(t *testing.T) {
	w := DefaultWeights()
	if w.Alpha != 1 || w.Beta != 1 || w.Gamma != 1 {
		t.Errorf("weights = %+v, want α=β=γ=1 (paper Sec. IV)", w)
	}
	if math.Abs(w.SplitterStageDB-3.3) > 1e-12 {
		t.Errorf("L_sp = %v, want 3.3", w.SplitterStageDB)
	}
}
