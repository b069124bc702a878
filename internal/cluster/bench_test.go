package cluster

import (
	"testing"

	"sring/internal/netlist"
	"sring/internal/obs"
)

// BenchmarkSynthesize measures the clustering (the Table II cost centre)
// per benchmark, plus D128, D256, circ128-1-11 and 32PM-128 with 8
// initial-vertex trials, the multi-level absorption load of the scale
// workloads. trials/op is the cluster.trials_evaluated counter of one
// traced run outside the timed loop.
func BenchmarkSynthesize(b *testing.B) {
	type input struct {
		app *netlist.Application
		opt Options
	}
	var inputs []input
	for _, app := range netlist.Benchmarks() {
		inputs = append(inputs, input{app, Options{}})
	}
	for _, name := range []string{"D128", "D256", "circ128-1-11", "32PM-128"} {
		app, err := netlist.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{app, Options{MaxInitialTrials: 8}})
	}
	for _, in := range inputs {
		b.Run(in.app.Name, func(b *testing.B) {
			rec := obs.New()
			sp := rec.StartSpan("bench")
			traced := in.opt
			traced.Obs = sp
			if _, err := Synthesize(in.app, traced); err != nil {
				b.Fatal(err)
			}
			sp.End()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(in.app, in.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rec.Snapshot().Counters["cluster.trials_evaluated"]), "trials/op")
		})
	}
}

// BenchmarkRingOrderLongest measures the absorption inner loop.
func BenchmarkRingOrderLongest(b *testing.B) {
	app := netlist.D26()
	order := app.ActiveNodes()
	rs := newRingScratch(app)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringOrderLongest(app, order, app.Messages, rs)
	}
}
