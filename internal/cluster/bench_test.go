package cluster

import (
	"testing"

	"sring/internal/netlist"
)

// BenchmarkSynthesize measures the clustering (the Table II cost centre)
// per benchmark, plus D128 with 8 initial-vertex trials, the multi-level
// absorption load of the scale workloads.
func BenchmarkSynthesize(b *testing.B) {
	type input struct {
		app *netlist.Application
		opt Options
	}
	var inputs []input
	for _, app := range netlist.Benchmarks() {
		inputs = append(inputs, input{app, Options{}})
	}
	d128, err := netlist.ByName("D128")
	if err != nil {
		b.Fatal(err)
	}
	inputs = append(inputs, input{d128, Options{MaxInitialTrials: 8}})
	for _, in := range inputs {
		b.Run(in.app.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(in.app, in.opt); err != nil {
					b.Fatal(err)
				}
			}
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
