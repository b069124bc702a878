package sring

import (
	"testing"
	"time"
)

func TestSynthesizeAllMethodsAllBenchmarks(t *testing.T) {
	for _, app := range Benchmarks() {
		for _, m := range Methods() {
			d, err := Synthesize(app, m, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, m, err)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s/%s: invalid design: %v", app.Name, m, err)
			}
			met, err := d.Metrics()
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, m, err)
			}
			if met.NumWavelengths < 1 || met.TotalLaserPowerMW <= 0 {
				t.Errorf("%s/%s: degenerate metrics %+v", app.Name, m, met)
			}
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := Synthesize(MWD(), Method("bogus"), Options{}); err == nil {
		t.Fatal("unknown method accepted")
	}
	// ORNoC brings its own assignment, so only the pipeline's up-front
	// check can reject an unknown oracle name, or an oracle without the
	// MILP, for it.
	for _, m := range []Method{MethodSRing, MethodORNoC} {
		if _, err := Synthesize(MWD(), m, Options{UseMILP: true, Oracle: "bogus"}); err == nil {
			t.Errorf("%s: unknown oracle accepted", m)
		}
		if _, err := Synthesize(MWD(), m, Options{Oracle: "cp"}); err == nil {
			t.Errorf("%s: oracle without UseMILP accepted", m)
		}
	}
}

func TestEvaluateReturnsAllMethods(t *testing.T) {
	res, err := Evaluate(MWD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("Evaluate returned %d methods", len(res))
	}
	for _, m := range Methods() {
		if res[m] == nil {
			t.Errorf("missing metrics for %s", m)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	for _, m := range Methods() {
		a, err := Synthesize(VOPD(), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Synthesize(VOPD(), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ma, _ := a.Metrics()
		mb, _ := b.Metrics()
		if ma.TotalLaserPowerMW != mb.TotalLaserPowerMW || ma.NumWavelengths != mb.NumWavelengths {
			t.Errorf("%s not deterministic", m)
		}
	}
}

func TestCustomTech(t *testing.T) {
	tech := DefaultTech()
	tech.SplitRatioDB = 4 // pessimistic splitters
	d, err := Synthesize(MWD(), MethodORNoC, Options{Tech: tech})
	if err != nil {
		t.Fatal(err)
	}
	met, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	base, err := Synthesize(MWD(), MethodORNoC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mBase, _ := base.Metrics()
	if met.WorstILAlldB <= mBase.WorstILAlldB {
		t.Error("pessimistic splitter loss should raise il_w_all")
	}
}

// The paper's Table II: SRing synthesis finishes within seconds per case.
func TestSRingRuntimeSeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime check skipped in -short mode")
	}
	for _, app := range Benchmarks() {
		start := time.Now()
		if _, err := Synthesize(app, MethodSRing, Options{}); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("%s: SRing took %s, want seconds", app.Name, elapsed)
		}
	}
}

func TestPlaceAndSynthesize(t *testing.T) {
	// A bare task graph: all nodes at the origin.
	app := &Application{
		Name: "bare",
		Nodes: []Node{
			{ID: 0, Name: "a"}, {ID: 1, Name: "b"},
			{ID: 2, Name: "c"}, {ID: 3, Name: "d"},
		},
		Messages: []Message{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
		},
	}
	d, err := PlaceAndSynthesize(app, MethodSRing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.App.Validate(); err != nil {
		t.Fatalf("placed app invalid: %v", err)
	}
	if d.App.MaxCommDistance() <= 0 {
		t.Error("placement degenerate")
	}
	// The input must remain unplaced (Place copies).
	if !app.Nodes[1].Pos.Eq(app.Nodes[0].Pos) {
		t.Error("input application was mutated")
	}
}

func TestPhysicalPDNOption(t *testing.T) {
	for _, m := range Methods() {
		abstract, err := Synthesize(MWD(), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		routed, err := Synthesize(MWD(), m, Options{PhysicalPDN: true})
		if err != nil {
			t.Fatal(err)
		}
		if routed.PDN.Tree == nil {
			t.Errorf("%s: PhysicalPDN produced no tree", m)
		}
		ma, _ := abstract.Metrics()
		mr, _ := routed.Metrics()
		// Routed feeds are never shorter, so il_w_all can only grow.
		if mr.WorstILAlldB < ma.WorstILAlldB-1e-9 {
			t.Errorf("%s: physical PDN reduced il_w_all: %v -> %v", m, ma.WorstILAlldB, mr.WorstILAlldB)
		}
	}
}
