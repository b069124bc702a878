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

// TestParallelProbeTelemetryMatchesSequential: absorption and iteration
// counters accumulate at consumption time, so they must match the
// sequential run exactly (spec.* diagnostics excluded).
func TestParallelProbeTelemetryMatchesSequential(t *testing.T) {
	forceProbes(t)
	app, err := netlist.Clustered(3, 4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *obs.Recorder {
		rec := obs.New()
		sp := rec.StartSpan("test")
		if _, err := Synthesize(app, Options{Parallelism: workers, Obs: sp}); err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		sp.End()
		return rec
	}
	seq, par := run(1), run(4)
	for _, name := range []string{"cluster.search.iterations", "cluster.absorptions"} {
		if s, g := seq.Snapshot().Counters[name], par.Snapshot().Counters[name]; s != g {
			t.Errorf("counter %s: parallel %d, sequential %d", name, g, s)
		}
	}
	if par.Snapshot().Counters["cluster.spec.scheduled"] == 0 {
		t.Error("parallel run scheduled no speculative probes")
	}
}
