package design

import (
	"math"
	"strings"
	"testing"

	"sring/internal/geom"
	"sring/internal/loss"
	"sring/internal/netlist"
	"sring/internal/pdn"
	"sring/internal/ring"
)

// squareApp: 4 nodes on a unit square, a directed message cycle.
func squareApp() *netlist.Application {
	return &netlist.Application{
		Name: "square",
		Nodes: []netlist.Node{
			{ID: 0, Name: "a", Pos: geom.Pt(0, 0)},
			{ID: 1, Name: "b", Pos: geom.Pt(1, 0)},
			{ID: 2, Name: "c", Pos: geom.Pt(1, 1)},
			{ID: 3, Name: "d", Pos: geom.Pt(0, 1)},
		},
		Messages: []netlist.Message{
			{Src: 0, Dst: 1, Bandwidth: 8},
			{Src: 1, Dst: 2, Bandwidth: 8},
			{Src: 2, Dst: 3, Bandwidth: 8},
			{Src: 3, Dst: 0, Bandwidth: 8},
		},
	}
}

// buildSquareDesign routes the message cycle on one ring.
func buildSquareDesign(t *testing.T, opt Options) *Design {
	t.Helper()
	app := squareApp()
	r := &ring.Ring{ID: 0, Kind: ring.Base, Order: []netlist.NodeID{0, 1, 2, 3}}
	var paths []ring.Path
	for _, m := range app.Messages {
		p, err := ring.Route(app, r, m)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	d, err := Finish(app, "test", []*ring.Ring{r}, paths, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFinishBasic(t *testing.T) {
	d := buildSquareDesign(t, Options{})
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	m, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// Four single-hop paths, none overlapping: one wavelength suffices.
	if m.NumWavelengths != 1 {
		t.Errorf("NumWavelengths = %d, want 1", m.NumWavelengths)
	}
	if math.Abs(m.LongestPathMM-1) > 1e-9 {
		t.Errorf("LongestPathMM = %v, want 1", m.LongestPathMM)
	}
	// Single-hop paths pass no intermediate nodes: L_s = fixed + propagation.
	tech := loss.Default()
	wantIL := tech.PathDB(loss.PathGeometry{LengthMM: 1})
	if math.Abs(m.WorstILdB-wantIL) > 1e-9 {
		t.Errorf("WorstILdB = %v, want %v", m.WorstILdB, wantIL)
	}
	// 4 sender nodes, single sender each: tree depth 2, no node splitters.
	if m.MaxSplitters != 2 {
		t.Errorf("MaxSplitters = %d, want 2", m.MaxSplitters)
	}
	if m.NodeSplitters != 0 {
		t.Errorf("NodeSplitters = %d, want 0", m.NodeSplitters)
	}
	if m.TotalLaserPowerMW <= 0 {
		t.Error("TotalLaserPowerMW must be positive")
	}
	if m.NumRings != 1 {
		t.Errorf("NumRings = %d", m.NumRings)
	}
}

func TestFinishThroughLossCounted(t *testing.T) {
	// Add a long message passing intermediate nodes: its L_s must exceed
	// the single-hop loss by through-loss and propagation.
	app := squareApp()
	app.Messages = append(app.Messages, netlist.Message{Src: 0, Dst: 3, Bandwidth: 8})
	r := &ring.Ring{ID: 0, Kind: ring.Base, Order: []netlist.NodeID{0, 1, 2, 3}}
	var paths []ring.Path
	for _, m := range app.Messages {
		p, err := ring.Route(app, r, m)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	d, err := Finish(app, "test", []*ring.Ring{r}, paths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	long := d.Infos[4]
	short := d.Infos[0]
	if long.Path.NodesPassed != 2 {
		t.Fatalf("long path NodesPassed = %d, want 2", long.Path.NodesPassed)
	}
	if long.LossDB <= short.LossDB {
		t.Errorf("long path L_s (%v) should exceed short path L_s (%v)", long.LossDB, short.LossDB)
	}
	// Exactly: 2 extra mm propagation, through loss at nodes 1 and 2, and
	// the two 90-degree junction turns at the square's corners.
	tech := loss.Default()
	// Node 1: sends 1 message on ring 0, receives 1 => 2 MRRs; same node 2.
	wantDelta := 2*tech.PropagationDBPerMM + 4*tech.ThroughDB + 2*tech.BendDB
	if math.Abs((long.LossDB-short.LossDB)-wantDelta) > 1e-9 {
		t.Errorf("L_s delta = %v, want %v", long.LossDB-short.LossDB, wantDelta)
	}
}

func TestFinishErrors(t *testing.T) {
	app := squareApp()
	r := &ring.Ring{ID: 0, Order: []netlist.NodeID{0, 1, 2, 3}}
	good := make([]ring.Path, 0, 4)
	for _, m := range app.Messages {
		p, _ := ring.Route(app, r, m)
		good = append(good, p)
	}
	if _, err := Finish(app, "t", []*ring.Ring{r}, good[:3], Options{}); err == nil ||
		!strings.Contains(err.Error(), "paths for") {
		t.Errorf("short path list accepted: %v", err)
	}
	swapped := append([]ring.Path(nil), good...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := Finish(app, "t", []*ring.Ring{r}, swapped, Options{}); err == nil {
		t.Error("misordered paths accepted")
	}
	ghost := append([]ring.Path(nil), good...)
	ghost[0].RingID = 9
	if _, err := Finish(app, "t", []*ring.Ring{r}, ghost, Options{}); err == nil {
		t.Error("path on unknown ring accepted")
	}
	bad := loss.Tech{PropagationDBPerMM: -1}
	if _, err := Finish(app, "t", []*ring.Ring{r}, good, Options{Tech: bad}); err == nil {
		t.Error("invalid tech accepted")
	}
}

func TestPDNAllTwoSenderForcesSplitters(t *testing.T) {
	base := buildSquareDesign(t, Options{})
	forced := buildSquareDesign(t, Options{
		PDN:             pdn.Config{ForceNodeSplitter: true},
		PDNAllTwoSender: true,
	})
	mBase, _ := base.Metrics()
	mForced, _ := forced.Metrics()
	if mForced.MaxSplitters != mBase.MaxSplitters+1 {
		t.Errorf("forced MaxSplitters = %d, want %d", mForced.MaxSplitters, mBase.MaxSplitters+1)
	}
	if mForced.NodeSplitters != 4 {
		t.Errorf("forced NodeSplitters = %d, want 4", mForced.NodeSplitters)
	}
	// The extra 3.3 dB per path shows up in il_w_all but NOT in il_w.
	if math.Abs(mForced.WorstILdB-mBase.WorstILdB) > 1e-9 {
		t.Error("il_w must exclude PDN losses")
	}
	wantDelta := loss.Default().SplitterStageDB()
	if math.Abs((mForced.WorstILAlldB-mBase.WorstILAlldB)-wantDelta) > 1e-9 {
		t.Errorf("il_w_all delta = %v, want %v", mForced.WorstILAlldB-mBase.WorstILAlldB, wantDelta)
	}
	if mForced.TotalLaserPowerMW <= mBase.TotalLaserPowerMW {
		t.Error("forced splitters must cost laser power")
	}
}

func TestMetricsPerLambdaConsistency(t *testing.T) {
	d := buildSquareDesign(t, Options{})
	m, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerLambdaWorstILdB) != m.NumWavelengths {
		t.Fatalf("per-λ list length %d != #wl %d", len(m.PerLambdaWorstILdB), m.NumWavelengths)
	}
	var worst float64
	for _, il := range m.PerLambdaWorstILdB {
		worst = math.Max(worst, il)
	}
	if math.Abs(worst-m.WorstILAlldB) > 1e-9 {
		t.Errorf("max per-λ IL %v != WorstILAll %v", worst, m.WorstILAlldB)
	}
	want := d.Tech.TotalLaserPowerMW(m.PerLambdaWorstILdB)
	if math.Abs(want-m.TotalLaserPowerMW) > 1e-12 {
		t.Errorf("power %v != aggregate %v", m.TotalLaserPowerMW, want)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := buildSquareDesign(t, Options{})
	d.Assignment.Lambda[0] = d.Assignment.Lambda[1] // not conflicting here...
	// Corrupt a path's length instead: re-derivation must catch it.
	d.Infos[0].Path.Length += 1
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted corrupted path length")
	}
}
