package wavelength_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pipeline"
	"sring/internal/ring"
	"sring/internal/wavelength"

	_ "sring/internal/cluster"
	_ "sring/internal/ctoring"
	_ "sring/internal/xring"
)

// improveWeights are the objective settings the climb is checked under: the
// instance's own weights, a wavelength-heavy α, and a cheap splitter stage
// that makes sharing (and so splitter flips) attractive.
func improveWeights(w wavelength.Weights) []wavelength.Weights {
	alpha, cheap := w, w
	alpha.Alpha = 5
	cheap.SplitterStageDB = 0.3
	return []wavelength.Weights{w, alpha, cheap}
}

// randomImproveInfos is a seeded random path set: arcs on a few rings of
// assorted sizes, senders drawn from a small node pool so that many send on
// two or three rings, and losses on a coarse grid so that per-wavelength
// maxima tie.
func randomImproveInfos(rng *rand.Rand) []wavelength.PathInfo {
	nRings := 1 + rng.Intn(3)
	sizes := make([]int, nRings)
	for r := range sizes {
		sizes[r] = 3 + rng.Intn(8)
	}
	infos := make([]wavelength.PathInfo, 4+rng.Intn(40))
	for i := range infos {
		r := rng.Intn(nRings)
		n := sizes[r]
		src := rng.Intn(n)
		var segs []int
		for s, l := src, 1+rng.Intn(n-1); l > 0; s, l = (s+1)%n, l-1 {
			segs = append(segs, s)
		}
		infos[i] = wavelength.PathInfo{
			Path: ring.Path{
				Msg:    netlist.Message{Src: netlist.NodeID(rng.Intn(6)), Dst: netlist.NodeID(100 + i)},
				RingID: r,
				Segs:   segs,
			},
			LossDB: float64(rng.Intn(12)) * 0.5,
		}
	}
	return infos
}

// improveInstance is an app's assignment instance under a method.
func improveInstance(t *testing.T, name, method string, trials int) ([]wavelength.PathInfo, wavelength.Weights) {
	t.Helper()
	app, err := netlist.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	infos, w, err := pipeline.PathInfos(context.Background(), app, method, pipeline.Options{ClusterTrials: trials})
	if err != nil {
		t.Fatal(err)
	}
	return infos, w
}

// TestImproveMatchesOracle holds the incrementally scored hill climb to the
// reference climb in export_test.go, which rescores every trial over all
// paths: the returned assignments must be identical. Inputs are the paper
// apps under SRing, XRing and CTORing, the scale apps at eight clustering
// trials, and seeded random path sets, each under three weight settings.
func TestImproveMatchesOracle(t *testing.T) {
	check := func(t *testing.T, infos []wavelength.PathInfo, w wavelength.Weights) {
		t.Helper()
		for _, w := range improveWeights(w) {
			start := wavelength.DSATUR(infos)
			got := wavelength.Improve(infos, start, w)
			want := wavelength.RefImprove(infos, start, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("weights %+v: Improve = %v,\nreference %v", w, got, want)
			}
		}
	}
	for _, app := range netlist.Benchmarks() {
		for _, method := range []string{"SRing", "XRing", "CTORing"} {
			t.Run(app.Name+"/"+method, func(t *testing.T) {
				infos, w := improveInstance(t, app.Name, method, 0)
				check(t, infos, w)
			})
		}
	}
	for _, name := range []string{"D128", "D256", "circ128-1-11", "32PM-128"} {
		t.Run(name, func(t *testing.T) {
			infos, w := improveInstance(t, name, "SRing", 8)
			check(t, infos, w)
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 300; k++ {
			infos := randomImproveInfos(rng)
			t.Run(fmt.Sprint(k), func(t *testing.T) { check(t, infos, wavelength.DefaultWeights()) })
		}
	})
}

// TestImproveWorkUnits pins the hill climb's work units on the scale apps:
// the recolour trials it scores and the trials it hands to the full
// evaluator because they flip a sender's splitter. Both come from the
// wavelength.heuristic span of a traced assignment, and both are
// deterministic: a change to the trial order, the feasibility test or the
// flip rule moves them.
func TestImproveWorkUnits(t *testing.T) {
	for _, tc := range []struct {
		name             string
		trials, rescored int64
	}{
		{"D128", 2330, 62},
		{"D256", 14910, 248},
	} {
		t.Run(tc.name, func(t *testing.T) {
			infos, w := improveInstance(t, tc.name, "SRing", 8)
			rec := obs.New()
			root := rec.StartSpan("assign")
			if _, _, err := wavelength.Assign(infos, wavelength.Options{Weights: w, Obs: root}); err != nil {
				t.Fatal(err)
			}
			root.End()
			c := rec.Snapshot().Counters
			trials, rescored := c["wavelength.improve_trials"], c["wavelength.improve_rescored"]
			t.Logf("%s: %d trials, %d rescored (%.1f%%)", tc.name, trials, rescored, 100*float64(rescored)/float64(trials))
			if trials != tc.trials || rescored != tc.rescored {
				t.Errorf("trials, rescored = %d, %d; want %d, %d", trials, rescored, tc.trials, tc.rescored)
			}
		})
	}
}
