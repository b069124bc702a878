package sring

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Sec. IV), plus ablations for the design choices called out in
// DESIGN.md §5. Quality numbers (wavelengths, losses, power) are attached
// to each benchmark via b.ReportMetric, so a -bench run regenerates the
// papers' data alongside the timings:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable2's ns/op IS the Table II runtime (SRing synthesis wall
// clock per benchmark).

import (
	"testing"
	"time"

	"sring/internal/cluster"
	"sring/internal/design"
	"sring/internal/netlist"
	"sring/internal/pdn"
	"sring/internal/randsol"
	"sring/internal/ring"
	"sring/internal/wavelength"
)

// BenchmarkTable1 regenerates Table I: every method on every benchmark,
// reporting the four table columns as metrics.
func BenchmarkTable1(b *testing.B) {
	for _, app := range Benchmarks() {
		for _, m := range Methods() {
			app, m := app, m
			b.Run(app.Name+"/"+string(m), func(b *testing.B) {
				var met *Metrics
				for i := 0; i < b.N; i++ {
					d, err := Synthesize(app, m, Options{})
					if err != nil {
						b.Fatal(err)
					}
					met, err = d.Metrics()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(met.LongestPathMM, "L_mm")
				b.ReportMetric(met.WorstILdB, "il_w_dB")
				b.ReportMetric(float64(met.MaxSplitters), "sp_w")
				b.ReportMetric(met.WorstILAlldB, "il_all_dB")
			})
		}
	}
}

// BenchmarkTable2 regenerates Table II: SRing synthesis runtime per
// benchmark (the ns/op column is the paper's runtime entry).
func BenchmarkTable2(b *testing.B) {
	for _, app := range Benchmarks() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(app, MethodSRing, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSynthesize times the exact (MILP-enabled) SRing synthesis per
// benchmark application, reporting the solver's optimality gap and node
// count alongside the wall clock. CI runs a single iteration of the MWD
// subtest as a smoke check:
//
//	go test -run - -bench Synthesize/MWD -benchtime 1x
func BenchmarkSynthesize(b *testing.B) {
	for _, app := range Benchmarks() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			b.ReportAllocs()
			var d *Design
			for i := 0; i < b.N; i++ {
				var err error
				d, err = Synthesize(app, MethodSRing, Options{UseMILP: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			if st := d.AssignStats; st != nil && st.MILPRan {
				b.ReportMetric(st.MILPGap, "gap")
				b.ReportMetric(float64(st.MILPNodes), "nodes")
			}
		})
	}
}

// BenchmarkFig7 regenerates Fig. 7: total laser power and wavelength usage
// per method per benchmark.
func BenchmarkFig7(b *testing.B) {
	for _, app := range Benchmarks() {
		for _, m := range Methods() {
			app, m := app, m
			b.Run(app.Name+"/"+string(m), func(b *testing.B) {
				var met *Metrics
				for i := 0; i < b.N; i++ {
					d, err := Synthesize(app, m, Options{})
					if err != nil {
						b.Fatal(err)
					}
					met, err = d.Metrics()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(met.TotalLaserPowerMW*1000, "laser_uW")
				b.ReportMetric(float64(met.NumWavelengths), "wl")
			})
		}
	}
}

// BenchmarkFig8 regenerates the Fig. 8 sampling study: per iteration, 1000
// random solutions of MWD / VOPD, reporting the feasibility rate. (The
// paper draws 100000 — run cmd/experiments fig8 for the full study.)
func BenchmarkFig8(b *testing.B) {
	for _, name := range []string{"MWD", "VOPD"} {
		name := name
		b.Run(name, func(b *testing.B) {
			app, err := Benchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			var rate float64
			for i := 0; i < b.N; i++ {
				st, err := randsol.Run(app, DefaultTech(), int64(i+1), 1000)
				if err != nil {
					b.Fatal(err)
				}
				rate = st.FeasibleRate()
			}
			b.ReportMetric(rate*100, "feasible_%")
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// sringInfos synthesises SRing's rings/paths for an app and prices them,
// returning the assignment inputs — shared by the assignment ablations.
func sringInfos(b *testing.B, app *Application) []wavelength.PathInfo {
	b.Helper()
	res, err := cluster.Synthesize(app, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]ring.Path, len(app.Messages))
	ringByID := make(map[int]*ring.Ring)
	for _, r := range res.Rings {
		ringByID[r.ID] = r
	}
	for i, m := range app.Messages {
		p, err := ring.Route(app, ringByID[res.RingForMessage[i]], m)
		if err != nil {
			b.Fatal(err)
		}
		paths[i] = p
	}
	d, err := design.Finish(app, "SRing", res.Rings, paths, design.Options{PDN: pdn.Config{}})
	if err != nil {
		b.Fatal(err)
	}
	return d.Infos
}

// BenchmarkAblationAssignment compares the wavelength-assignment stages on
// MWD: plain DSATUR, the splitter-aware hill climb, and the MILP polish.
// The reported eq8 metric is the paper's Eq. 8 objective (lower is better).
func BenchmarkAblationAssignment(b *testing.B) {
	app := MWD()
	infos := sringInfos(b, app)
	w := wavelength.DefaultWeights()

	b.Run("dsatur", func(b *testing.B) {
		var obj wavelength.Objective
		for i := 0; i < b.N; i++ {
			a := wavelength.DSATUR(infos)
			obj = wavelength.Evaluate(infos, a, w)
		}
		b.ReportMetric(obj.Value, "eq8")
		b.ReportMetric(float64(obj.Splitters), "splitters")
	})
	b.Run("improve", func(b *testing.B) {
		var obj wavelength.Objective
		for i := 0; i < b.N; i++ {
			a := wavelength.Improve(infos, wavelength.DSATUR(infos), w)
			obj = wavelength.Evaluate(infos, a, w)
		}
		b.ReportMetric(obj.Value, "eq8")
		b.ReportMetric(float64(obj.Splitters), "splitters")
	})
	b.Run("milp", func(b *testing.B) {
		var obj wavelength.Objective
		for i := 0; i < b.N; i++ {
			a, _, err := wavelength.Assign(infos, wavelength.Options{
				Weights: w, UseMILP: true, MILPTimeLimit: 10 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			obj = wavelength.Evaluate(infos, a, w)
		}
		b.ReportMetric(obj.Value, "eq8")
		b.ReportMetric(float64(obj.Splitters), "splitters")
	})
}

// BenchmarkImproveScale runs the splitter-aware hill climb on real SRing
// path sets at scale (ClusterTrials 8, as in the scale goldens). Unlike
// BenchmarkImprove's clique, where every recolour but a fresh colour is
// infeasible, these instances score many feasible moves with Eq. 8.
func BenchmarkImproveScale(b *testing.B) {
	for _, name := range []string{"D128", "D256", "circ128-1-11", "32PM-128"} {
		b.Run(name, func(b *testing.B) {
			app, err := Benchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			d, err := Synthesize(app, MethodSRing, Options{ClusterTrials: 8})
			if err != nil {
				b.Fatal(err)
			}
			w := wavelength.DefaultWeights()
			start := wavelength.DSATUR(d.Infos)
			b.ReportAllocs()
			b.ResetTimer()
			var obj wavelength.Objective
			for i := 0; i < b.N; i++ {
				obj = wavelength.Evaluate(d.Infos, wavelength.Improve(d.Infos, start, w), w)
			}
			b.ReportMetric(obj.Value, "eq8")
			b.ReportMetric(float64(obj.Splitters), "splitters")
		})
	}
}

// BenchmarkAblationAbsorption compares SRing's absorption-grown sub-rings
// against naive sequential connection of the same clusters: the metric is
// the longest signal path (mm).
func BenchmarkAblationAbsorption(b *testing.B) {
	app := VOPD()
	b.Run("absorption", func(b *testing.B) {
		var worst float64
		for i := 0; i < b.N; i++ {
			res, err := cluster.Synthesize(app, cluster.Options{})
			if err != nil {
				b.Fatal(err)
			}
			worst = longestPath(b, app, res)
		}
		b.ReportMetric(worst, "L_mm")
	})
	b.Run("sequential", func(b *testing.B) {
		// Same clusters, nodes connected in ID order (no absorption).
		var worst float64
		for i := 0; i < b.N; i++ {
			res, err := cluster.Synthesize(app, cluster.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range res.Rings {
				ordered := append([]netlist.NodeID(nil), r.Order...)
				for x := 1; x < len(ordered); x++ {
					for y := x; y > 0 && ordered[y] < ordered[y-1]; y-- {
						ordered[y], ordered[y-1] = ordered[y-1], ordered[y]
					}
				}
				r.Order = ordered
			}
			worst = longestPath(b, app, res)
		}
		b.ReportMetric(worst, "L_mm")
	})
}

func longestPath(b *testing.B, app *Application, res *cluster.Result) float64 {
	b.Helper()
	ringByID := make(map[int]*ring.Ring)
	for _, r := range res.Rings {
		ringByID[r.ID] = r
	}
	var worst float64
	for i, m := range app.Messages {
		l, err := ringByID[res.RingForMessage[i]].PathLength(app, m.Src, m.Dst)
		if err != nil {
			b.Fatal(err)
		}
		if l > worst {
			worst = l
		}
	}
	return worst
}

// BenchmarkAblationSearch compares the L_max binary search at different
// tree heights: a taller tree evaluates more candidates but finds a
// tighter bound.
func BenchmarkAblationSearch(b *testing.B) {
	app := D26()
	for _, h := range []int{1, 3, 6, 9} {
		h := h
		b.Run(map[int]string{1: "h1", 3: "h3", 6: "h6", 9: "h9"}[h], func(b *testing.B) {
			var lmax float64
			var evaluated int
			for i := 0; i < b.N; i++ {
				res, err := cluster.Synthesize(app, cluster.Options{TreeHeight: h})
				if err != nil {
					b.Fatal(err)
				}
				lmax = res.Lmax
				evaluated = res.Evaluated
			}
			b.ReportMetric(lmax, "Lmax_mm")
			b.ReportMetric(float64(evaluated), "evals")
		})
	}
}

// BenchmarkAblationSplitterObjective compares SRing's assignment with and
// without the splitter term of Eq. 8 (γ·Σ il_λ^max with L_sp active vs
// splitter-blind): the metric is the node-splitter count and total power.
func BenchmarkAblationSplitterObjective(b *testing.B) {
	app := MPEG()
	infos := sringInfos(b, app)
	run := func(b *testing.B, w wavelength.Weights) {
		var obj wavelength.Objective
		for i := 0; i < b.N; i++ {
			a := wavelength.Improve(infos, wavelength.DSATUR(infos), w)
			// Evaluate always under the true weights for comparability.
			obj = wavelength.Evaluate(infos, a, wavelength.DefaultWeights())
		}
		b.ReportMetric(float64(obj.Splitters), "splitters")
		b.ReportMetric(float64(obj.NumLambda), "wl")
		b.ReportMetric(obj.Value, "eq8")
	}
	b.Run("splitter-aware", func(b *testing.B) { run(b, wavelength.DefaultWeights()) })
	b.Run("splitter-blind", func(b *testing.B) {
		w := wavelength.DefaultWeights()
		w.SplitterStageDB = 0
		run(b, w)
	})
}

// BenchmarkSynthesizeNoRecorder is the telemetry regression guard: the
// default nil-Recorder synthesis must not pay for the instrumentation.
// Compare its ns/op and allocs/op against BenchmarkSynthesizeRecorder to
// see the observed-run overhead; TestNoRecorderPathZeroAlloc pins the
// nil path to zero allocations.
func BenchmarkSynthesizeNoRecorder(b *testing.B) {
	app := MWD()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(app, MethodSRing, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeRecorder is the observed-run counterpart.
func BenchmarkSynthesizeRecorder(b *testing.B) {
	app := MWD()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(app, MethodSRing, Options{Recorder: NewRecorder()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelOverheadMWD guards the speculation gate on the smallest
// application: exact (MILP) synthesis of MWD at -j 4 must never be more
// than 10% slower than the sequential run. Before the gate, handing
// microsecond-scale LP relaxations to a worker pool made MWD 1.3–1.6×
// slower at j=4 (BENCH_2026-08-06-warmstart.json); with small problems
// routed to the inline evaluator, the j=4 path does the same MILP work on
// the calling goroutine. Timing is best-of-rounds (the minimum is robust
// to scheduling noise, which only ever inflates a round). The j1/j4
// subtests report the two timings; the assertion runs after both.
func BenchmarkParallelOverheadMWD(b *testing.B) {
	app := MWD()
	measure := func(j int) time.Duration {
		const rounds, iters = 5, 8
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := Synthesize(app, MethodSRing, Options{UseMILP: true, Parallelism: j}); err != nil {
					b.Fatal(err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best / iters
	}
	var j1, j4 time.Duration
	b.Run("j1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j1 = measure(1)
		}
		b.ReportMetric(float64(j1.Nanoseconds()), "ns/synth")
	})
	b.Run("j4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j4 = measure(4)
		}
		b.ReportMetric(float64(j4.Nanoseconds()), "ns/synth")
	})
	if j1 > 0 && float64(j4) > 1.10*float64(j1) {
		b.Fatalf("MWD exact synthesis at j=4 is %.2fx j=1 (j1=%v j4=%v), want <= 1.10x", float64(j4)/float64(j1), j1, j4)
	}
}
