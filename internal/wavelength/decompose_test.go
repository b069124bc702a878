package wavelength

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"sring/internal/netlist"
	"sring/internal/ring"
)

// TestSplitterComponents checks the ring-coupling partition: rings sharing
// a sender node merge, rings without shared senders stay apart.
func TestSplitterComponents(t *testing.T) {
	mk := func(src netlist.NodeID, ringID, seg int) PathInfo {
		return PathInfo{Path: ring.Path{
			Msg:    netlist.Message{Src: src, Dst: 99},
			RingID: ringID,
			Segs:   []int{seg},
		}, LossDB: 4}
	}
	infos := []PathInfo{
		mk(1, 0, 0), // node 1 sends on rings 0 and 1: couples them
		mk(1, 1, 0),
		mk(2, 1, 1),
		mk(3, 2, 0), // ring 2 has private senders: own component
		mk(4, 2, 1),
	}
	comps := splitterComponents(infos)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2: %v", len(comps), comps)
	}
	want := [][]int{{0, 1, 2}, {3, 4}}
	for c := range want {
		if len(comps[c]) != len(want[c]) {
			t.Fatalf("component %d = %v, want %v", c, comps[c], want[c])
		}
		for i := range want[c] {
			if comps[c][i] != want[c][i] {
				t.Fatalf("component %d = %v, want %v", c, comps[c], want[c])
			}
		}
	}
}

// randomSplitInstance builds paths over nRings rings whose sender name
// spaces are disjoint per ring, so every ring is its own coupling
// component.
func randomSplitInstance(rng *rand.Rand) []PathInfo {
	nRings := 2 + rng.Intn(2)
	var infos []PathInfo
	for r := 0; r < nRings; r++ {
		nPaths := 2 + rng.Intn(2)
		for i := 0; i < nPaths; i++ {
			const ringLen = 5
			start := rng.Intn(ringLen)
			length := 1 + rng.Intn(3)
			segs := make([]int, length)
			for k := range segs {
				segs[k] = (start + k) % ringLen
			}
			infos = append(infos, PathInfo{
				Path: ring.Path{
					Msg:    netlist.Message{Src: netlist.NodeID(100*r + rng.Intn(3)), Dst: netlist.NodeID(90 + len(infos))},
					RingID: r,
					Segs:   segs,
				},
				LossDB: 3 + rng.Float64()*2,
			})
		}
	}
	return infos
}

// The decomposed solve must reach the brute-force optimum of Eq. 8 on
// exhaustively checkable multi-component instances, and always return a
// collision-free assignment.
func TestDecomposedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		infos := randomSplitInstance(rng)
		w := DefaultWeights()
		a, stats, err := Assign(infos, Options{
			Weights:       w,
			UseMILP:       true,
			Decompose:     true,
			MILPTimeLimit: 30 * time.Second,
			ExtraLambda:   2,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Verify(infos, a); err != nil {
			t.Fatalf("trial %d: invalid decomposed assignment: %v", trial, err)
		}
		if stats.DecompComponents < 2 {
			t.Fatalf("trial %d: expected a multi-component instance, got %d", trial, stats.DecompComponents)
		}
		got := Evaluate(infos, a, w).Value
		want := bruteForce(infos, a.NumLambda+2, w)
		if got > want+1e-6 {
			t.Errorf("trial %d: decomposed objective %v, brute force %v (paths %d, components %d)",
				trial, got, want, len(infos), stats.DecompComponents)
		}
	}
}

// Decomposed and monolithic solves must agree on instances both can solve
// exactly — the palette coordination may not lose anything the global
// model sees.
func TestDecomposedMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		infos := randomSplitInstance(rng)
		w := DefaultWeights()
		opt := Options{Weights: w, UseMILP: true, MILPTimeLimit: 30 * time.Second, ExtraLambda: 2}
		mono, mstats, err := Assign(infos, opt)
		if err != nil {
			t.Fatalf("trial %d monolithic: %v", trial, err)
		}
		opt.Decompose = true
		dec, dstats, err := Assign(infos, opt)
		if err != nil {
			t.Fatalf("trial %d decomposed: %v", trial, err)
		}
		if !mstats.MILPExact || !dstats.DecompExact {
			continue // only compare proven optima
		}
		mv := Evaluate(infos, mono, w).Value
		dv := Evaluate(infos, dec, w).Value
		if dv > mv+1e-6 {
			t.Errorf("trial %d: decomposed %v worse than monolithic %v (components %d)",
				trial, dv, mv, dstats.DecompComponents)
		}
	}
}

// A single-component instance must run the monolithic solve verbatim under
// Decompose — bit-identical assignment and stats.
func TestDecomposeSingleComponentDelegates(t *testing.T) {
	infos := cliqueInfos(4)
	w := DefaultWeights()
	opt := Options{Weights: w, UseMILP: true, MILPTimeLimit: 30 * time.Second}
	mono, mstats, err := Assign(infos, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Decompose = true
	dec, dstats, err := Assign(infos, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dstats.DecompComponents != 1 {
		t.Fatalf("DecompComponents = %d, want 1", dstats.DecompComponents)
	}
	if !equalLambda(mono.Lambda, dec.Lambda) || mono.NumLambda != dec.NumLambda {
		t.Errorf("single-component delegation differs: %v vs %v", mono.Lambda, dec.Lambda)
	}
	if mstats.MILPRan != dstats.MILPRan || mstats.MILPExact != dstats.MILPExact ||
		mstats.MILPNodeFingerprint != dstats.MILPNodeFingerprint {
		t.Errorf("single-component delegation stats differ: %+v vs %+v", mstats, dstats)
	}
}

// hierInfos builds a hierarchical single-component instance: nClusters
// intra rings (level 0) whose first sender is a hub that also sends on one
// shared inter ring (level 1), chaining every ring into one coupling
// component — the shape SRing constructions produce at scale.
func hierInfos(nClusters, perCluster int) ([]PathInfo, map[int]int) {
	const ringLen = 6
	var infos []PathInfo
	levels := make(map[int]int)
	for c := 0; c < nClusters; c++ {
		levels[c] = 0
		for i := 0; i < perCluster; i++ {
			infos = append(infos, PathInfo{Path: ring.Path{
				Msg:    netlist.Message{Src: netlist.NodeID(100*c + i), Dst: netlist.NodeID(1000 + len(infos))},
				RingID: c,
				Segs:   []int{i % ringLen, (i + 1) % ringLen},
			}, LossDB: 3 + 0.3*float64(i)})
		}
	}
	inter := nClusters
	levels[inter] = 1
	for c := 0; c < nClusters; c++ {
		infos = append(infos, PathInfo{Path: ring.Path{
			Msg:    netlist.Message{Src: netlist.NodeID(100 * c), Dst: netlist.NodeID(2000 + c)},
			RingID: inter,
			Segs:   []int{c % ringLen, (c + 1) % ringLen},
		}, LossDB: 4.5})
	}
	return infos, levels
}

// An oversized single-component hierarchical instance must be cut along
// the construction tiers: one boundary piece (the inter ring) plus one
// leaf piece per cluster, with boundary and leaf paths never mixed in a
// piece, and the merged assignment must keep every hub's intra and inter
// wavelengths disjoint (the cut introduces no splitter).
func TestDecomposeTierCut(t *testing.T) {
	infos, levels := hierInfos(3, 4)
	w := DefaultWeights()
	comps := splitterComponents(infos)
	if len(comps) != 1 {
		t.Fatalf("expected one coupling component, got %d", len(comps))
	}
	heur := Improve(infos, DSATUR(infos), w)

	const maxBin = 20 // force the cut: 15 paths x any palette exceeds this
	pieces := buildPieces(infos, comps, heur, 1, maxBin, levels)
	if len(pieces) != 4 {
		t.Fatalf("got %d pieces, want 4 (1 boundary + 3 leaves)", len(pieces))
	}
	nBoundary := 0
	for p, piece := range pieces {
		if piece.boundary {
			nBoundary++
		}
		for _, g := range piece.paths {
			if inter := levels[infos[g].SenderRing()] > 0; inter != piece.boundary {
				t.Errorf("piece %d (boundary=%v) holds path %d of the wrong tier", p, piece.boundary, g)
			}
		}
	}
	if nBoundary != 1 {
		t.Errorf("got %d boundary pieces, want 1", nBoundary)
	}

	merged, _, _, cancelled, err := assignDecomposed(context.Background(), infos, pieces, heur, w,
		10*time.Second, maxBin, 1, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled || merged == nil {
		t.Fatal("decomposed solve did not finish")
	}
	if err := Verify(infos, merged); err != nil {
		t.Fatalf("merged assignment invalid: %v", err)
	}
	intra := make(map[netlist.NodeID]map[int]bool)
	for i, pi := range infos {
		if levels[pi.SenderRing()] == 0 {
			if intra[pi.SenderNode()] == nil {
				intra[pi.SenderNode()] = make(map[int]bool)
			}
			intra[pi.SenderNode()][merged.Lambda[i]] = true
		}
	}
	for i, pi := range infos {
		if levels[pi.SenderRing()] > 0 && intra[pi.SenderNode()][merged.Lambda[i]] {
			t.Errorf("hub %d shares wavelength %d across the tier cut", pi.SenderNode(), merged.Lambda[i])
		}
	}

	// The full path adopts the merged result only when it beats the
	// heuristic, so the final objective can never regress.
	a, stats, err := Assign(infos, Options{Weights: w, UseMILP: true, Decompose: true,
		RingLevels: levels, MILPTimeLimit: 10 * time.Second, MaxBinaries: maxBin})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(infos, a); err != nil {
		t.Fatalf("final assignment invalid: %v", err)
	}
	if stats.DecompComponents != 4 {
		t.Errorf("DecompComponents = %d, want 4", stats.DecompComponents)
	}
	if stats.Final.Value > stats.Heuristic.Value+1e-9 {
		t.Errorf("decomposed final %.6f worse than heuristic %.6f", stats.Final.Value, stats.Heuristic.Value)
	}
}
