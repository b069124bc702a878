package cluster

import (
	"reflect"
	"testing"

	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/par"
)

// forceProbes ignores the speculative core cap for the duration of a test
// so the prober is exercised even on single-core machines.
func forceProbes(t *testing.T) {
	t.Helper()
	old := resolveSpecWorkers
	resolveSpecWorkers = par.Resolve
	t.Cleanup(func() { resolveSpecWorkers = old })
}

// TestParallelProbesMatchSequential: the construction returned with
// concurrent L_max probes must equal the sequential one field for field on
// every benchmark — same L_max, same clusters, same ring orders, same
// message-to-ring mapping.
func TestParallelProbesMatchSequential(t *testing.T) {
	forceProbes(t)
	for _, app := range netlist.Benchmarks() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			seq, err := Synthesize(app, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				got, err := Synthesize(app, Options{Parallelism: workers})
				if err != nil {
					t.Fatalf("parallelism %d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("parallelism %d diverged from sequential:\n got %+v\nwant %+v", workers, got, seq)
				}
			}
		})
	}
}

// TestParallelProbeTelemetryMatchesSequential: absorption, abandoned-growth,
// trial and iteration counters accumulate at consumption time, so they must
// match the sequential run exactly (spec.* diagnostics excluded), even
// though concurrent probes extend the shared round-1 and inter-ring
// trajectories in whatever order they run.
func TestParallelProbeTelemetryMatchesSequential(t *testing.T) {
	forceProbes(t)
	clustered, err := netlist.Clustered(3, 4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	d128, err := netlist.ByName("D128")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		app     *netlist.Application
		trials  int
		workers []int
	}{
		{clustered, 0, []int{4}},
		{d128, 8, []int{2, 8}},
	} {
		run := func(workers int) map[string]int64 {
			rec := obs.New()
			sp := rec.StartSpan("test")
			opt := Options{MaxInitialTrials: tc.trials, Parallelism: workers, Obs: sp}
			if _, err := Synthesize(tc.app, opt); err != nil {
				t.Fatalf("%s parallelism %d: %v", tc.app.Name, workers, err)
			}
			sp.End()
			return rec.Snapshot().Counters
		}
		seq := run(1)
		for _, workers := range tc.workers {
			par := run(workers)
			for _, name := range []string{"cluster.search.iterations", "cluster.absorptions", "cluster.growths_abandoned", "cluster.trials_evaluated"} {
				if s, g := seq[name], par[name]; s != g {
					t.Errorf("%s counter %s: parallelism %d %d, sequential %d", tc.app.Name, name, workers, g, s)
				}
			}
			if par["cluster.spec.scheduled"] == 0 {
				t.Errorf("%s parallelism %d scheduled no speculative probes", tc.app.Name, workers)
			}
		}
	}
}
