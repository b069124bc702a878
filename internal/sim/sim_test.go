package sim

import (
	"context"
	"math"
	"testing"

	_ "sring/internal/ctoring"
	"sring/internal/design"
	"sring/internal/netlist"
	_ "sring/internal/ornoc"
	"sring/internal/pdn"
	"sring/internal/pipeline"
	"sring/internal/ring"
	"sring/internal/wavelength"
)

func ctoringDesign(t *testing.T, app *netlist.Application) *design.Design {
	t.Helper()
	d, err := pipeline.Synthesize(context.Background(), app, "CTORing", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunBasics(t *testing.T) {
	d := ctoringDesign(t, netlist.MWD())
	res, err := Run(d, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("no packets delivered")
	}
	if res.Collisions != 0 {
		t.Errorf("valid design produced %d collisions", res.Collisions)
	}
	if res.AvgLatencyNS <= 0 || res.WorstLatencyNS < res.AvgLatencyNS {
		t.Errorf("latency stats inconsistent: avg %v worst %v", res.AvgLatencyNS, res.WorstLatencyNS)
	}
	if res.ThroughputGbps <= 0 || res.LaserEnergyPJPerBit <= 0 {
		t.Errorf("throughput/energy not positive: %v / %v", res.ThroughputGbps, res.LaserEnergyPJPerBit)
	}
	if len(res.PerMessage) != len(d.Infos) {
		t.Errorf("PerMessage length %d", len(res.PerMessage))
	}
}

func TestRunDeterministic(t *testing.T) {
	d := ctoringDesign(t, netlist.MWD())
	a, err := Run(d, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.PacketsDelivered != b.PacketsDelivered || a.AvgLatencyNS != b.AvgLatencyNS {
		t.Error("simulation not deterministic")
	}
	c, err := Run(d, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.PacketsDelivered == c.PacketsDelivered && a.AvgLatencyNS == c.AvgLatencyNS {
		t.Error("different seeds produced identical traffic")
	}
}

func TestLatencyScalesWithPathLength(t *testing.T) {
	// Latency floor = serialization + propagation; longer paths must show
	// a higher propagation component.
	d := ctoringDesign(t, netlist.D26())
	res, err := Run(d, Config{Seed: 1, Load: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var shortest, longest int
	for i, pi := range d.Infos {
		if pi.Path.Length < d.Infos[shortest].Path.Length {
			shortest = i
		}
		if pi.Path.Length > d.Infos[longest].Path.Length {
			longest = i
		}
		_ = i
	}
	if res.PerMessage[longest].PropagationNS <= res.PerMessage[shortest].PropagationNS {
		t.Errorf("propagation latency not increasing with length: %v vs %v",
			res.PerMessage[longest].PropagationNS, res.PerMessage[shortest].PropagationNS)
	}
	// 10.45 ps/mm: a 9.8 mm worst path adds ~0.102 ns over conversions.
	want := d.Infos[longest].Path.Length*10.45/1000 + 0.2
	if math.Abs(res.PerMessage[longest].PropagationNS-want) > 1e-9 {
		t.Errorf("propagation = %v ns, want %v", res.PerMessage[longest].PropagationNS, want)
	}
}

func TestHigherLoadHigherLatency(t *testing.T) {
	d := ctoringDesign(t, netlist.MWD())
	low, err := Run(d, Config{Seed: 3, Load: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(d, Config{Seed: 3, Load: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if high.AvgLatencyNS <= low.AvgLatencyNS {
		t.Errorf("queueing missing: load 0.9 avg %v <= load 0.1 avg %v",
			high.AvgLatencyNS, low.AvgLatencyNS)
	}
	if high.PacketsDelivered <= low.PacketsDelivered {
		t.Error("higher load should deliver more packets")
	}
}

// Failure injection: corrupt the assignment so two overlapping paths share
// a wavelength — the simulator must detect collisions.
func TestCollisionDetection(t *testing.T) {
	app := &netlist.Application{
		Name: "overlap",
		Nodes: []netlist.Node{
			{ID: 0, Pos: netlist.MWD().Nodes[0].Pos},
			{ID: 1, Pos: netlist.MWD().Nodes[1].Pos},
			{ID: 2, Pos: netlist.MWD().Nodes[2].Pos},
		},
		// Both messages traverse segment 0->1.
		Messages: []netlist.Message{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}},
	}
	r := &ring.Ring{ID: 0, Kind: ring.Base, Order: []netlist.NodeID{0, 1, 2}}
	var paths []ring.Path
	for _, m := range app.Messages {
		p, err := ring.Route(app, r, m)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	d, err := design.Finish(app, "test", []*ring.Ring{r}, paths, design.Options{PDN: pdn.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the real assignment is collision-free.
	clean, err := Run(d, Config{Seed: 1, Load: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Collisions != 0 {
		t.Fatalf("clean design collided %d times", clean.Collisions)
	}
	// Corrupt: force both messages onto wavelength 0.
	d.Assignment = &wavelength.Assignment{Lambda: []int{0, 0}, NumLambda: 1}
	dirty, err := Run(d, Config{Seed: 1, Load: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Collisions == 0 {
		t.Error("corrupted assignment produced no collisions")
	}
}

func TestConfigValidation(t *testing.T) {
	d := ctoringDesign(t, netlist.MWD())
	if _, err := Run(d, Config{Load: 1.5}); err == nil {
		t.Error("load > 1 accepted")
	}
	if _, err := Run(d, Config{Load: -0.1}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := Run(d, Config{Load: math.NaN()}); err == nil {
		t.Error("NaN load accepted")
	}
}

// All methods simulate collision-free on every benchmark (the WRONoC
// static-reservation guarantee, end to end).
func TestAllMethodsCollisionFree(t *testing.T) {
	for _, app := range netlist.Benchmarks() {
		for name, synth := range map[string]func() (*design.Design, error){
			"ORNoC": func() (*design.Design, error) {
				return pipeline.Synthesize(context.Background(), app, "ORNoC", pipeline.Options{})
			},
			"CTORing": func() (*design.Design, error) {
				return pipeline.Synthesize(context.Background(), app, "CTORing", pipeline.Options{})
			},
		} {
			d, err := synth()
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, name, err)
			}
			res, err := Run(d, Config{Seed: 5, Load: 0.8})
			if err != nil {
				t.Fatal(err)
			}
			if res.Collisions != 0 {
				t.Errorf("%s/%s: %d collisions", app.Name, name, res.Collisions)
			}
		}
	}
}

// Energy per bit tracks static laser power: a design with lower laser power
// delivers the same traffic for less energy.
func TestEnergyPerBitOrdering(t *testing.T) {
	app := netlist.MWD()
	orn, err := pipeline.Synthesize(context.Background(), app, "ORNoC", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cto := ctoringDesign(t, app)
	r1, err := Run(orn, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cto, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.LaserEnergyPJPerBit >= r1.LaserEnergyPJPerBit {
		t.Errorf("CTORing energy/bit %v not below ORNoC's %v",
			r2.LaserEnergyPJPerBit, r1.LaserEnergyPJPerBit)
	}
}

func TestWavelengthUtilization(t *testing.T) {
	d := ctoringDesign(t, netlist.MWD())
	res, err := Run(d, Config{Seed: 1, Load: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WavelengthUtilization) != d.Assignment.NumLambda {
		t.Fatalf("utilization entries = %d, want %d",
			len(res.WavelengthUtilization), d.Assignment.NumLambda)
	}
	any := false
	for l, u := range res.WavelengthUtilization {
		if u < 0 || u > 1 {
			t.Errorf("λ%d utilization %v outside [0,1]", l, u)
		}
		if u > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no wavelength saw any traffic")
	}
	// More load, more utilization (aggregate).
	high, err := Run(d, Config{Seed: 1, Load: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	var sumLow, sumHigh float64
	for l := range res.WavelengthUtilization {
		sumLow += res.WavelengthUtilization[l]
		sumHigh += high.WavelengthUtilization[l]
	}
	if sumHigh <= sumLow {
		t.Errorf("utilization did not grow with load: %v vs %v", sumHigh, sumLow)
	}
}
