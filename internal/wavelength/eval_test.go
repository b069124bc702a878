package wavelength

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sring/internal/netlist"
	"sring/internal/ring"
)

// The map-based Eq. 8 implementation the evaluator replaced, kept as a
// test-only oracle: a node -> ring -> λ-set index for splitter detection and
// a fresh per-λ slice per call.

func oracleNodeSplitters(infos []PathInfo, a *Assignment) map[netlist.NodeID]bool {
	byNode := make(map[netlist.NodeID]map[int]map[int]bool) // node -> ring -> λ set
	for i, pi := range infos {
		n, r := pi.SenderNode(), pi.SenderRing()
		if byNode[n] == nil {
			byNode[n] = make(map[int]map[int]bool)
		}
		if byNode[n][r] == nil {
			byNode[n][r] = make(map[int]bool)
		}
		byNode[n][r][a.Lambda[i]] = true
	}
	out := make(map[netlist.NodeID]bool)
	for n, rings := range byNode {
		var ringIDs []int
		for r := range rings {
			ringIDs = append(ringIDs, r)
		}
		sort.Ints(ringIDs)
	outer:
		for i := 0; i < len(ringIDs); i++ {
			for j := i + 1; j < len(ringIDs); j++ {
				for l := range rings[ringIDs[i]] {
					if rings[ringIDs[j]][l] {
						out[n] = true
						break outer
					}
				}
			}
		}
	}
	return out
}

func oraclePerLambda(infos []PathInfo, a *Assignment, w Weights, width int) (perLambda []float64, worst float64, sp map[netlist.NodeID]bool) {
	sp = oracleNodeSplitters(infos, a)
	perLambda = make([]float64, width)
	for i, pi := range infos {
		il := pi.LossDB
		if sp[pi.SenderNode()] {
			il += w.SplitterStageDB
		}
		worst = math.Max(worst, il)
		l := a.Lambda[i]
		perLambda[l] = math.Max(perLambda[l], il)
	}
	return perLambda, worst, sp
}

func oracleEvaluate(infos []PathInfo, a *Assignment, w Weights) Objective {
	perLambda, worst, sp := oraclePerLambda(infos, a, w, a.NumLambda)
	var sum float64
	used := 0
	for _, v := range perLambda {
		sum += v
		if v > 0 {
			used++
		}
	}
	obj := Objective{NumLambda: used, WorstIL: worst, SumPerLambda: sum, Splitters: len(sp)}
	obj.Value = w.Alpha*float64(used) + w.Beta*worst + w.Gamma*sum
	return obj
}

// oracleIncumbent lifts a normalised assignment into m's variable space
// with the oracle's splitter set and per-λ maxima.
func oracleIncumbent(m *MILPModel, infos []PathInfo, a *Assignment, w Weights) []float64 {
	x := make([]float64, m.Prob.LP.NumVars)
	for s, l := range a.Lambda {
		x[m.bVar(s, l)] = 1
	}
	for l := 0; l < a.NumLambda && l < m.l; l++ {
		x[m.yVar(l)] = 1
	}
	perLambda, worst, sp := oraclePerLambda(infos, a, w, m.l)
	for i, n := range m.spNodes {
		if sp[n] {
			x[m.spVar(i)] = 1
		}
	}
	x[m.ilSmaxVar()] = worst
	for l := 0; l < m.l; l++ {
		x[m.ilMaxVar(l)] = perLambda[l]
	}
	return x
}

// randomEvalInfos builds a path set whose sender nodes spread over up to
// five rings (so many nodes send on three or more), with scattered NodeIDs
// and about one zero-loss path in five.
func randomEvalInfos(rng *rand.Rand) []PathInfo {
	nNodes := 2 + rng.Intn(10)
	nRings := 1 + rng.Intn(5)
	infos := make([]PathInfo, 1+rng.Intn(40))
	for i := range infos {
		loss := float64(rng.Intn(40)) / 4
		if rng.Intn(5) == 0 {
			loss = 0
		}
		seg := rng.Intn(6)
		infos[i] = PathInfo{Path: ring.Path{
			Msg:    netlist.Message{Src: netlist.NodeID(7 * rng.Intn(nNodes)), Dst: netlist.NodeID(1000 + i)},
			RingID: 3 * rng.Intn(nRings),
			Segs:   []int{seg, seg + 1 + rng.Intn(3)},
		}, LossDB: loss}
	}
	return infos
}

// randomEvalAssignment draws a wavelength per path from a palette with a
// few unused slots on top, and sometimes makes a fresh-colour move.
func randomEvalAssignment(rng *rand.Rand, n int) *Assignment {
	a := &Assignment{Lambda: make([]int, n), NumLambda: 1 + rng.Intn(8)}
	for i := range a.Lambda {
		a.Lambda[i] = rng.Intn(a.NumLambda)
	}
	a.NumLambda += rng.Intn(3)
	if rng.Intn(2) == 0 {
		a.Lambda[rng.Intn(n)] = a.NumLambda
		a.NumLambda++
	}
	return a
}

func randomEvalWeights(rng *rand.Rand) Weights {
	pick := func() float64 { return []float64{0, 1, 0.5, 2.25}[rng.Intn(4)] }
	return Weights{Alpha: pick(), Beta: pick(), Gamma: pick(), SplitterStageDB: []float64{0, 3.3, 1.7}[rng.Intn(3)]}
}

// The evaluator must reproduce the map-based oracle bit for bit, both
// freshly built (Evaluate, PerLambdaLoss, NodeSplitters) and when one
// evaluator scores many assignments in a row, as the hill climb does.
func TestEvaluatorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	multiRing := 0
	for inst := 0; inst < 300; inst++ {
		infos := randomEvalInfos(rng)
		rings := make(map[netlist.NodeID]map[int]bool)
		for _, pi := range infos {
			if rings[pi.SenderNode()] == nil {
				rings[pi.SenderNode()] = make(map[int]bool)
			}
			rings[pi.SenderNode()][pi.SenderRing()] = true
		}
		for _, rs := range rings {
			if len(rs) >= 3 {
				multiRing++
			}
		}
		ev := newEvaluator(infos)
		for k := 0; k < 20; k++ {
			a := randomEvalAssignment(rng, len(infos))
			w := randomEvalWeights(rng)
			want := oracleEvaluate(infos, a, w)
			if got := ev.score(a, w); got != want {
				t.Fatalf("instance %d/%d: reused evaluator %+v, oracle %+v", inst, k, got, want)
			}
			if got := Evaluate(infos, a, w); got != want {
				t.Fatalf("instance %d/%d: Evaluate %+v, oracle %+v", inst, k, got, want)
			}
			wantPer, _, wantSp := oraclePerLambda(infos, a, w, a.NumLambda)
			if got := PerLambdaLoss(infos, a, w); !reflect.DeepEqual(got, wantPer) {
				t.Fatalf("instance %d/%d: PerLambdaLoss %v, oracle %v", inst, k, got, wantPer)
			}
			if got := NodeSplitters(infos, a); !reflect.DeepEqual(got, wantSp) {
				t.Fatalf("instance %d/%d: NodeSplitters %v, oracle %v", inst, k, got, wantSp)
			}
		}
	}
	if multiRing == 0 {
		t.Fatal("no instance had a node sending on three or more rings")
	}
}

// IncumbentVector lifts through the evaluator; the lifted point must equal
// the oracle's, including the ilmax values of unused palette slots.
func TestIncumbentVectorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := DefaultWeights()
	for inst := 0; inst < 40; inst++ {
		infos := randomEvalInfos(rng)
		a := randomEvalAssignment(rng, len(infos))
		norm := a.Clone()
		norm.Normalize()
		m, err := BuildMILP(infos, norm.NumLambda+rng.Intn(3), w)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleIncumbent(m, infos, norm, w)
		if got := m.IncumbentVector(infos, a, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d: lifted incumbent differs from the oracle's", inst)
		}
	}
}

// An assignment the model cannot represent lifts to nil (a cold start)
// instead of indexing past the palette.
func TestIncumbentVectorUnrepresentable(t *testing.T) {
	infos := cliqueInfos(3)
	w := DefaultWeights()
	m, err := BuildMILP(infos, 2, w)
	if err != nil {
		t.Fatal(err)
	}
	if x := m.IncumbentVector(infos, &Assignment{Lambda: []int{0, 1, 2}, NumLambda: 3}, w); x != nil {
		t.Fatalf("3-colour assignment on a 2-colour model lifted to %v, want nil", x)
	}
	if x := m.IncumbentVector(infos, &Assignment{Lambda: []int{0, 1}, NumLambda: 2}, w); x != nil {
		t.Fatalf("2-path assignment on a 3-path model lifted to %v, want nil", x)
	}
	// Normalisation happens first: a 2-colour assignment written with a
	// wider palette still fits.
	if x := m.IncumbentVector(infos, &Assignment{Lambda: []int{4, 1, 4}, NumLambda: 5}, w); x == nil {
		t.Fatal("2-colour assignment with unused slots lifted to nil")
	}
}

// Scoring with a built evaluator allocates nothing.
func TestEvaluatorScoreAllocatesNothing(t *testing.T) {
	infos := randomEvalInfos(rand.New(rand.NewSource(1)))
	a := randomEvalAssignment(rand.New(rand.NewSource(2)), len(infos))
	w := DefaultWeights()
	ev := newEvaluator(infos)
	ev.score(a, w)
	if n := testing.AllocsPerRun(100, func() { ev.score(a, w) }); n != 0 {
		t.Fatalf("score allocates %.1f times per call, want 0", n)
	}
}
