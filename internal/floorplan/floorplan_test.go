package floorplan

import (
	"math/rand"
	"testing"

	"sring/internal/geom"
	"sring/internal/netlist"
)

// chainApp returns an n-node chain task graph with all nodes at the origin
// (no placement).
func chainApp(n int) *netlist.Application {
	app := &netlist.Application{Name: "chain"}
	for i := 0; i < n; i++ {
		app.Nodes = append(app.Nodes, netlist.Node{ID: netlist.NodeID(i)})
	}
	for i := 0; i+1 < n; i++ {
		app.Messages = append(app.Messages, netlist.Message{
			Src: netlist.NodeID(i), Dst: netlist.NodeID(i + 1), Bandwidth: 64,
		})
	}
	return app
}

func TestPlaceProducesValidApplication(t *testing.T) {
	app := chainApp(9)
	placed, err := Place(app, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := placed.Validate(); err != nil {
		t.Fatalf("placed app invalid: %v", err)
	}
	// Structure preserved.
	if placed.N() != app.N() || placed.M() != app.M() {
		t.Error("Place changed the netlist structure")
	}
	for i := range app.Messages {
		if placed.Messages[i] != app.Messages[i] {
			t.Error("Place changed messages")
		}
	}
	// Input untouched.
	for _, n := range app.Nodes {
		if !n.Pos.Eq(geom.Pt(0, 0)) {
			t.Error("Place mutated its input")
		}
	}
}

func TestPlaceBeatsRandomPlacement(t *testing.T) {
	app := chainApp(16)
	placed, err := Place(app, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	annealed := Wirelength(placed)

	// Average wirelength over random placements on the same grid.
	rng := rand.New(rand.NewSource(9))
	var randomSum float64
	const trials = 50
	for tr := 0; tr < trials; tr++ {
		r := app.Clone()
		perm := rng.Perm(16)
		for i := range r.Nodes {
			r.Nodes[i].Pos = geom.Pt(float64(perm[i]%4)*0.15, float64(perm[i]/4)*0.15)
		}
		randomSum += Wirelength(r)
	}
	randomAvg := randomSum / trials
	if annealed >= randomAvg*0.7 {
		t.Errorf("annealed wirelength %v not clearly below random average %v", annealed, randomAvg)
	}
}

func TestPlaceChainNearOptimal(t *testing.T) {
	// A 4-node chain on a 2x2 grid: the optimum keeps every hop at one
	// pitch (wirelength 3 * 64 * 0.15 = 28.8).
	app := chainApp(4)
	placed, err := Place(app, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := Wirelength(placed); got > 28.8+1e-9 {
		t.Errorf("chain wirelength %v, want optimal 28.8", got)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	app := chainApp(10)
	a, err := Place(app, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(app, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if !a.Nodes[i].Pos.Eq(b.Nodes[i].Pos) {
			t.Fatal("Place not deterministic")
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	if _, err := Place(&netlist.Application{}, Options{}); err == nil {
		t.Error("empty app accepted")
	}
	noMsgs := &netlist.Application{Nodes: []netlist.Node{{ID: 0}, {ID: 1}}}
	if _, err := Place(noMsgs, Options{}); err == nil {
		t.Error("app without messages accepted")
	}
}

func TestPlaceRespectsBandwidthWeights(t *testing.T) {
	// Star with one dominant flow: the heavy partner must end up adjacent
	// to the hub.
	app := &netlist.Application{Name: "star"}
	for i := 0; i < 9; i++ {
		app.Nodes = append(app.Nodes, netlist.Node{ID: netlist.NodeID(i)})
	}
	for i := 1; i < 9; i++ {
		bw := 1.0
		if i == 8 {
			bw = 10000
		}
		app.Messages = append(app.Messages, netlist.Message{
			Src: 0, Dst: netlist.NodeID(i), Bandwidth: bw,
		})
	}
	placed, err := Place(app, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := placed.Pos(0).Manhattan(placed.Pos(8))
	if d > 0.15+1e-9 {
		t.Errorf("dominant-flow partner at distance %v, want adjacent (0.15)", d)
	}
}

// Placed task graphs feed straight into synthesis: end-to-end smoke.
func TestPlaceFeedsSynthesis(t *testing.T) {
	app := chainApp(8)
	placed, err := Place(app, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := placed.Validate(); err != nil {
		t.Fatal(err)
	}
	if placed.MaxCommDistance() <= 0 {
		t.Error("degenerate placement")
	}
}
