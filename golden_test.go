package sring

import (
	"math"
	"testing"
)

// Golden regression values for Table I under the default calibration
// (DESIGN.md §2). Every synthesis is deterministic, so these must
// reproduce exactly; a change here means either an intentional
// recalibration (update EXPERIMENTS.md alongside) or an accidental
// behaviour change.
func TestGoldenTable1(t *testing.T) {
	type row struct {
		l, ilw float64
		spw    int
		ilAll  float64
		wl     int
	}
	golden := map[string]map[Method]row{
		"MWD": {
			MethodORNoC:   {3.15, 4.11, 5, 20.73, 5},
			MethodCTORing: {1.35, 3.45, 5, 20.13, 3},
			MethodXRing:   {1.20, 3.37, 6, 23.21, 2},
			MethodSRing:   {0.45, 3.14, 4, 16.50, 2},
		},
		"D26": {
			MethodORNoC:   {9.80, 7.03, 6, 27.08, 28},
			MethodCTORing: {4.60, 4.88, 6, 24.86, 10},
			MethodXRing:   {2.20, 3.84, 7, 27.31, 6},
			MethodSRing:   {4.20, 4.63, 5, 21.46, 16},
		},
		"8PM-44": {
			MethodORNoC:   {1.00, 3.94, 4, 17.25, 16},
			MethodCTORing: {0.70, 3.62, 4, 16.93, 9},
			MethodXRing:   {0.70, 3.40, 5, 19.95, 8},
			MethodSRing:   {0.70, 3.86, 3, 13.87, 22},
		},
	}
	for bench, methods := range golden {
		app, err := Benchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		for m, want := range methods {
			d, err := Synthesize(app, m, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, m, err)
			}
			met, err := d.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(met.LongestPathMM-want.l) > 0.005 {
				t.Errorf("%s/%s: L = %.3f, golden %.2f", bench, m, met.LongestPathMM, want.l)
			}
			if math.Abs(met.WorstILdB-want.ilw) > 0.005 {
				t.Errorf("%s/%s: il_w = %.3f, golden %.2f", bench, m, met.WorstILdB, want.ilw)
			}
			if met.MaxSplitters != want.spw {
				t.Errorf("%s/%s: #sp_w = %d, golden %d", bench, m, met.MaxSplitters, want.spw)
			}
			if math.Abs(met.WorstILAlldB-want.ilAll) > 0.005 {
				t.Errorf("%s/%s: il_all = %.3f, golden %.2f", bench, m, met.WorstILAlldB, want.ilAll)
			}
			if met.NumWavelengths != want.wl {
				t.Errorf("%s/%s: #wl = %d, golden %d", bench, m, met.NumWavelengths, want.wl)
			}
		}
	}
}

// The extended benchmark suite must synthesise cleanly with every method
// and keep SRing's headline structural advantages (fewest splitters,
// lowest il_w_all) in the low-density regime it targets.
func TestExtendedBenchmarks(t *testing.T) {
	for _, app := range ExtendedBenchmarks() {
		res, err := Evaluate(app, Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		s := res[MethodSRing]
		for _, m := range []Method{MethodORNoC, MethodCTORing, MethodXRing} {
			if s.MaxSplitters >= res[m].MaxSplitters {
				t.Errorf("%s: SRing #sp_w %d not below %s's %d",
					app.Name, s.MaxSplitters, m, res[m].MaxSplitters)
			}
			if s.WorstILAlldB >= res[m].WorstILAlldB {
				t.Errorf("%s: SRing il_all %.2f not below %s's %.2f",
					app.Name, s.WorstILAlldB, m, res[m].WorstILAlldB)
			}
		}
	}
}

// Golden values for SRing's heuristic flow at scale (ClusterTrials 8, no
// MILP): multi-level clustering, absorption and the wavelength hill climb
// on 128-256-node apps, the path Table I's small benchmarks barely load.
// D256 is skipped under -short.
func TestGoldenScale(t *testing.T) {
	golden := []struct {
		app     string
		laserMW float64
		wl      int
	}{
		{"D128", 27.302432, 14},
		{"D256", 165.048978, 26},
		{"circ128-1-11", 11.220501, 6},
		{"32PM-128", 8.940098, 29},
	}
	for _, g := range golden {
		if g.app == "D256" && testing.Short() {
			continue
		}
		app, err := Benchmark(g.app)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Synthesize(app, MethodSRing, Options{ClusterTrials: 8})
		if err != nil {
			t.Fatalf("%s: %v", g.app, err)
		}
		met, err := d.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(met.TotalLaserPowerMW-g.laserMW) > 1e-6 {
			t.Errorf("%s: laser power = %.6f mW, golden %.6f", g.app, met.TotalLaserPowerMW, g.laserMW)
		}
		if met.NumWavelengths != g.wl {
			t.Errorf("%s: #wl = %d, golden %d", g.app, met.NumWavelengths, g.wl)
		}
	}
}
