package netlist

import (
	"strings"
	"testing"

	"sring/internal/geom"
)

func twoNodeApp() *Application {
	return &Application{
		Name: "t",
		Nodes: []Node{
			{ID: 0, Name: "a", Pos: geom.Pt(0, 0)},
			{ID: 1, Name: "b", Pos: geom.Pt(1, 0)},
		},
		Messages: []Message{{Src: 0, Dst: 1, Bandwidth: 8}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := twoNodeApp().Validate(); err != nil {
		t.Fatalf("valid app rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Application)
		wantSub string
	}{
		{"too few nodes", func(a *Application) { a.Nodes = a.Nodes[:1] }, "at least 2 nodes"},
		{"non-dense IDs", func(a *Application) { a.Nodes[1].ID = 5 }, "dense IDs"},
		{"duplicate position", func(a *Application) { a.Nodes[1].Pos = a.Nodes[0].Pos }, "share position"},
		{"no messages", func(a *Application) { a.Messages = nil }, "no messages"},
		{"unknown node", func(a *Application) { a.Messages[0].Dst = 9 }, "unknown node"},
		{"negative node", func(a *Application) { a.Messages[0].Src = -1 }, "unknown node"},
		{"self message", func(a *Application) { a.Messages[0].Dst = 0 }, "self-message"},
		{"duplicate message", func(a *Application) {
			a.Messages = append(a.Messages, a.Messages[0])
		}, "duplicate message"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			app := twoNodeApp()
			c.mutate(app)
			err := app.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid app")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestBenchmarkSignatures(t *testing.T) {
	want := map[string][2]int{
		"MWD":    {12, 13},
		"VOPD":   {16, 21},
		"MPEG":   {12, 26},
		"D26":    {26, 68},
		"8PM-24": {8, 24},
		"8PM-32": {8, 32},
		"8PM-44": {8, 44},
	}
	got := map[string]bool{}
	for _, app := range Benchmarks() {
		sig, ok := want[app.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", app.Name)
			continue
		}
		got[app.Name] = true
		if app.N() != sig[0] || app.M() != sig[1] {
			t.Errorf("%s: (#N=%d, #M=%d), want (#N=%d, #M=%d)", app.Name, app.N(), app.M(), sig[0], sig[1])
		}
		if err := app.Validate(); err != nil {
			t.Errorf("%s invalid: %v", app.Name, err)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("benchmark %q missing", name)
		}
	}
}

func TestBenchmarksAllNodesActive(t *testing.T) {
	for _, app := range Benchmarks() {
		if got := len(app.ActiveNodes()); got != app.N() {
			t.Errorf("%s: %d active nodes of %d; benchmarks should have no idle nodes", app.Name, got, app.N())
		}
	}
}

func TestMWDPaperProperties(t *testing.T) {
	app := MWD()
	// Paper node 3 (ID 2) sends to exactly one node: paper node 4 (ID 3).
	from := app.MessagesFrom(2)
	if len(from) != 1 || from[0].Dst != 3 {
		t.Errorf("MWD node 3 should send only to node 4, got %v", from)
	}
	// Paper nodes 4 and 11 (IDs 3, 10) communicate in both directions.
	dir := map[[2]NodeID]bool{}
	for _, m := range app.Messages {
		dir[[2]NodeID{m.Src, m.Dst}] = true
	}
	if !dir[[2]NodeID{3, 10}] || !dir[[2]NodeID{10, 3}] {
		t.Error("MWD nodes 4 and 11 should exchange traffic both ways")
	}
}

func TestMPEGHubProperty(t *testing.T) {
	app := MPEG()
	adj := app.Adjacency()
	if got := len(adj[5]); got != app.N()-1 {
		t.Errorf("MPEG sdram adjacency = %d, want %d (talks to all other nodes)", got, app.N()-1)
	}
}

func TestByName(t *testing.T) {
	app, err := ByName("VOPD")
	if err != nil || app.Name != "VOPD" {
		t.Fatalf("ByName(VOPD) = %v, %v", app, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown name")
	} else if !strings.Contains(err.Error(), "MWD") {
		t.Errorf("error should list available names, got %q", err)
	}
}

func TestAdjacencySorted(t *testing.T) {
	app := MWD()
	for id, neigh := range app.Adjacency() {
		for i := 1; i < len(neigh); i++ {
			if neigh[i-1] >= neigh[i] {
				t.Errorf("adjacency of %d not strictly sorted: %v", id, neigh)
			}
		}
		for _, v := range neigh {
			if v == id {
				t.Errorf("node %d adjacent to itself", id)
			}
		}
	}
}

func TestMaxCommDistance(t *testing.T) {
	app := twoNodeApp()
	if got := app.MaxCommDistance(); got != 1 {
		t.Errorf("MaxCommDistance = %v, want 1", got)
	}
	// MWD: nodes 4 (ID 3, pos (0.45,0)) and 11 (ID 10, pos (0.3,0.3))
	// communicate at distance 0.45; verify d1 >= that.
	mwd := MWD()
	if got := mwd.MaxCommDistance(); got < 0.45-geom.Eps {
		t.Errorf("MWD MaxCommDistance = %v, want >= 0.45", got)
	}
}

func TestDensityOrdering(t *testing.T) {
	// Paper: MWD/VOPD low density, 8PM-44 high density.
	if MWD().Density() >= PM44().Density() {
		t.Error("MWD should be less dense than 8PM-44")
	}
	if PM24().Density() >= PM44().Density() {
		t.Error("8PM-24 should be less dense than 8PM-44")
	}
}

func TestSendersAndActive(t *testing.T) {
	app := &Application{
		Name: "t",
		Nodes: []Node{
			{ID: 0, Pos: geom.Pt(0, 0)}, {ID: 1, Pos: geom.Pt(1, 0)},
			{ID: 2, Pos: geom.Pt(2, 0)}, {ID: 3, Pos: geom.Pt(3, 0)},
		},
		Messages: []Message{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}},
	}
	if got := app.Senders(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Senders = %v, want [0]", got)
	}
	if got := app.ActiveNodes(); len(got) != 3 {
		t.Errorf("ActiveNodes = %v, want 3 nodes (node 3 idle)", got)
	}
}

func TestClone(t *testing.T) {
	app := MWD()
	cp := app.Clone()
	cp.Nodes[0].Name = "mutated"
	cp.Messages[0].Src = 5
	if app.Nodes[0].Name == "mutated" || app.Messages[0].Src == 5 {
		t.Error("Clone shares backing arrays with original")
	}
}

func TestString(t *testing.T) {
	if got := MWD().String(); got != "MWD (#N=12, #M=13)" {
		t.Errorf("String = %q", got)
	}
}
