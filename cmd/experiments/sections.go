package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sring"
	"sring/internal/fault"
	"sring/internal/lambdarouter"
	"sring/internal/randsol"
	"sring/internal/report"
	"sring/internal/ring"
	"sring/internal/sim"
	"sring/internal/wavelength"
)

const (
	// paperSamples is Fig. 8's random-solution count (the paper's), the
	// -samples default.
	paperSamples = 100000
	// fig8Seed seeds Fig. 8's random solutions.
	fig8Seed = 2025
	// trafficLoad is the traffic section's offered load per message.
	trafficLoad = 0.5
)

var (
	runTable1 = metricSection("=== Table I: comparison of ORNoC, CTORing, XRing and SRing ===", report.Table1)
	runFig7   = metricSection("=== Fig. 7: total laser power and wavelength usage ===", report.Fig7)
)

// metricSection returns a section that synthesises the paper grid and
// renders its metric rows under title (as CSV under -csv).
func metricSection(title string, render func([]report.Row) string) func(*env, io.Writer) error {
	return func(e *env, w io.Writer) error {
		rows, err := runGrid(e, grid(e.paperApps(), sring.Methods()), func(c cell) (report.Row, error) {
			opt := e.options(1)
			opt.UseMILP = e.milp
			_, met, err := e.synth(c.app, c.m, opt)
			if err != nil {
				return report.Row{}, err
			}
			return report.Row{
				Benchmark:         c.app.Name,
				Method:            string(c.m),
				LongestPathMM:     met.LongestPathMM,
				WorstILdB:         met.WorstILdB,
				MaxSplitters:      met.MaxSplitters,
				WorstILAlldB:      met.WorstILAlldB,
				NumWavelengths:    met.NumWavelengths,
				TotalLaserPowerMW: met.TotalLaserPowerMW,
			}, nil
		})
		if err != nil {
			return err
		}
		out := render(rows)
		if e.csv {
			out = report.CSV(rows)
		}
		fmt.Fprintln(w, title)
		fmt.Fprint(w, out)
		fmt.Fprintln(w)
		return nil
	}
}

// runTable2 times each SRing synthesis, uncached so that the time is the
// synthesis itself, and breaks it into stages from a per-run trace.
func runTable2(e *env, w io.Writer) error {
	apps := e.paperApps()
	timings, err := runGrid(e, grid(apps, []sring.Method{sring.MethodSRing}), func(c cell) (report.StageTiming, error) {
		rec := sring.NewRecorder()
		d, err := sring.SynthesizeContext(e.ctx, c.app, c.m, sring.Options{UseMILP: e.milp, Parallelism: 1, Recorder: rec})
		if err != nil {
			return report.StageTiming{}, err
		}
		t := rec.Snapshot()
		return report.StageTiming{
			Total:   d.SynthesisTime,
			Cluster: t.SumDuration("cluster.synthesize"),
			Layout:  t.SumDuration("design.layout"),
			Assign:  t.SumDuration("wavelength.assign"),
			MILP:    t.SumDuration("wavelength.milp"),
			PDN:     t.SumDuration("design.pdn"),
		}, nil
	})
	if err != nil {
		return err
	}
	order := make([]string, len(apps))
	runtimes := make(map[string]time.Duration, len(apps))
	stages := make(map[string]report.StageTiming, len(apps))
	for i, app := range apps {
		order[i] = app.Name
		runtimes[app.Name] = timings[i].Total
		stages[app.Name] = timings[i]
	}
	fmt.Fprintln(w, "=== Table II: program runtime of SRing [s] ===")
	fmt.Fprint(w, report.Table2(runtimes, order))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-stage breakdown (from telemetry):")
	fmt.Fprint(w, report.Table2Stages(stages, order))
	fmt.Fprintln(w)
	return nil
}

// runFig8 reproduces the solution-quality study: random clustering +
// sequential sub-rings + random wavelength assignment, histogrammed against
// SRing's solution for MWD (and the feasibility count for VOPD).
func runFig8(e *env, w io.Writer) error {
	fmt.Fprintf(w, "=== Fig. 8: %d random solutions vs SRing ===\n", e.samples)
	tech := sring.DefaultTech()
	for _, name := range []string{"MWD", "VOPD"} {
		app, err := sring.Benchmark(name)
		if err != nil {
			return err
		}
		st, err := randsol.Run(app, tech, fig8Seed, e.samples)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s: %d / %d feasible (%.2f%%)\n", name, st.Feasible, st.Total, 100*st.FeasibleRate())
		if name != "MWD" {
			continue // the paper histograms MWD only
		}
		opt := e.options(e.jobs)
		opt.UseMILP = e.milp
		d, m, err := e.synth(app, sring.MethodSRing, opt)
		if err != nil {
			return err
		}
		paths := make([]ring.Path, len(d.Infos))
		for i, pi := range d.Infos {
			paths[i] = pi.Path
		}
		sringIL := randsol.ReducedWorstIL(app, tech, d.Rings, paths)
		wls := report.IntHistogramValues(st.WavelengthCounts)
		fmt.Fprintln(w)
		fmt.Fprint(w, report.Histogram("(a) #wl for MWD", wls, float64(m.NumWavelengths), 10))
		fmt.Fprintln(w)
		fmt.Fprint(w, report.Histogram("(b) il_w for MWD [dB]", st.WorstILs, sringIL, 10))
		fmt.Fprintln(w)
		fmt.Fprint(w, report.Summary("#wl", float64(m.NumWavelengths), wls))
		fmt.Fprint(w, report.Summary("il_w", sringIL, st.WorstILs))
	}
	return nil
}

// runSensitivity sweeps the two calibrated loss constants and reports, per
// setting, on how many of the seven benchmarks SRing has the lowest total
// laser power.
func runSensitivity(e *env, w io.Writer) error {
	fmt.Fprintln(w, "=== sensitivity: benchmarks where SRing has the lowest laser power ===")
	fmt.Fprintf(w, "%-28s %-10s %s\n", "parameter setting", "wins", "of 7 benchmarks")
	type setting struct {
		name string
		tech sring.Tech
	}
	var settings []setting
	for _, split := range []float64{2.0, 3.0, 4.0} {
		tech := sring.DefaultTech()
		tech.SplitRatioDB = split
		settings = append(settings, setting{fmt.Sprintf("split ratio %.1f dB", split), tech})
	}
	for _, prop := range []float64{0.0274, 0.1, 0.274, 0.5} {
		tech := sring.DefaultTech()
		tech.PropagationDBPerMM = prop
		settings = append(settings, setting{fmt.Sprintf("propagation %.4f dB/mm", prop), tech})
	}
	for _, s := range settings {
		wins, total := 0, 0
		for _, app := range sring.Benchmarks() {
			opt := e.options(e.jobs)
			opt.Tech = s.tech
			res, err := sring.EvaluateContext(e.ctx, app, opt)
			if err != nil {
				return err
			}
			total++
			best := true
			for _, m := range sring.Methods() {
				if m != sring.MethodSRing && res[m].TotalLaserPowerMW < res[sring.MethodSRing].TotalLaserPowerMW {
					best = false
				}
			}
			if best {
				wins++
			}
		}
		fmt.Fprintf(w, "%-28s %-10d %d\n", s.name, wins, total)
	}
	return nil
}

// runTraffic simulates packet traffic on every design and prints latency
// and energy per bit.
func runTraffic(e *env, w io.Writer) error {
	rows, err := runGrid(e, grid(sring.Benchmarks(), sring.Methods()), func(c cell) (string, error) {
		d, _, err := e.synth(c.app, c.m, e.options(1))
		if err != nil {
			return "", err
		}
		res, err := sim.Run(d, sim.Config{Seed: 7, Load: trafficLoad})
		if err != nil {
			return "", err
		}
		if res.Collisions != 0 {
			return "", fmt.Errorf("%s/%s: %d collisions in a valid design", c.app.Name, c.m, res.Collisions)
		}
		return fmt.Sprintf("%-10s %-9s %10d %12.2f %12.2f %12.5f\n",
			c.app.Name, c.m, res.PacketsDelivered, res.AvgLatencyNS,
			res.ThroughputGbps, res.LaserEnergyPJPerBit), nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== packet-level comparison (load %.2f, 10 Gb/s per λ, 1 µs) ===\n", trafficLoad)
	fmt.Fprintf(w, "%-10s %-9s %10s %12s %12s %12s\n",
		"benchmark", "method", "packets", "avg lat[ns]", "thrpt[Gb/s]", "pJ/bit")
	fmt.Fprint(w, strings.Join(rows, ""))
	return nil
}

// runDensity sweeps communication density on a fixed 12-node placement and
// tracks SRing's power and wavelength usage against CTORing's — the paper's
// Sec. IV-A "wavelength usage depends on the communication density"
// narrative as a generated curve.
func runDensity(e *env, w io.Writer) error {
	fmt.Fprintln(w, "=== density sweep: 12 nodes, growing message count (seed 3) ===")
	fmt.Fprintf(w, "%-8s %-8s %14s %14s %10s %10s\n",
		"#M", "density", "SRing P[mW]", "CTORing P[mW]", "SRing #wl", "CTOR #wl")
	for _, m := range []int{12, 18, 24, 36, 48, 72, 96} {
		app, err := sring.RandomApplication(12, m, 3)
		if err != nil {
			return err
		}
		_, ms, err := e.synth(app, sring.MethodSRing, e.options(e.jobs))
		if err != nil {
			return err
		}
		_, mc, err := e.synth(app, sring.MethodCTORing, e.options(e.jobs))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %-8.1f %14.4f %14.4f %10d %10d\n",
			m, app.Density(), ms.TotalLaserPowerMW, mc.TotalLaserPowerMW,
			ms.NumWavelengths, mc.NumWavelengths)
	}
	return nil
}

// runCrossbar quantifies the paper's Fig. 1 motivation: crossbar
// (λ-router) designs pay OSE and crossing losses that grow with the port
// count, while ring routers avoid them.
func runCrossbar(e *env, w io.Writer) error {
	fmt.Fprintln(w, "=== ring vs crossbar (λ-router), paper Fig. 1 ===")
	fmt.Fprintf(w, "%-10s %14s %14s %14s %10s\n",
		"benchmark", "xbar il_w[dB]", "ring il_w[dB]", "SRing il_w[dB]", "xbar OSEs")
	tech := sring.DefaultTech()
	for _, app := range sring.Benchmarks() {
		xb, err := lambdarouter.Synthesize(app, 0.1)
		if err != nil {
			return err
		}
		mx, err := xb.Evaluate(tech)
		if err != nil {
			return err
		}
		_, mc, err := e.synth(app, sring.MethodCTORing, e.options(e.jobs))
		if err != nil {
			return err
		}
		_, ms, err := e.synth(app, sring.MethodSRing, e.options(e.jobs))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %14.2f %14.2f %14.2f %10d\n",
			app.Name, mx.WorstILdB, mc.WorstILdB, ms.WorstILdB, mx.TotalOSEs)
	}
	return nil
}

// runScale extends Table II beyond the paper's sizes: solution quality for
// random low-density networks up to 64 nodes, with and without the
// initial-vertex cap. The runtimes go to e.log, off the pinned stdout.
func runScale(e *env, w io.Writer) error {
	fmt.Fprintln(w, "=== SRing synthesis scaling (random apps, density 1.5) ===")
	fmt.Fprintf(w, "%-6s %-8s %14s %12s\n", "#N", "trials", "Lmax[mm]", "power[mW]")
	for _, n := range []int{16, 32, 48, 64} {
		app, err := sring.RandomApplication(n, n*3/2, 42)
		if err != nil {
			return err
		}
		for _, trials := range []int{0, 6} {
			if n > 32 && trials == 0 {
				continue // the uncapped paper algorithm is O(n^2) growths per L_max
			}
			opt := e.options(e.jobs)
			opt.ClusterTrials = trials
			start := time.Now()
			_, met, err := e.synth(app, sring.MethodSRing, opt)
			if err != nil {
				return err
			}
			label := "all"
			if trials > 0 {
				label = fmt.Sprint(trials)
			}
			fmt.Fprintf(e.log, "scale: %d nodes, %s trials: %v\n", n, label, time.Since(start).Round(time.Millisecond))
			fmt.Fprintf(w, "%-6d %-8s %14.2f %12.4f\n", n, label, met.LongestPathMM, met.TotalLaserPowerMW)
		}
	}
	return nil
}

// runResources compares the device cost (MRRs, splitters, waveguide) and
// the single-fault exposure of the four methods: the honest trade behind
// SRing's efficiency — fewer, more heavily loaded front-ends.
func runResources(e *env, w io.Writer) error {
	rows, err := runGrid(e, grid(sring.Benchmarks(), sring.Methods()), func(c cell) (string, error) {
		d, met, err := e.synth(c.app, c.m, e.options(1))
		if err != nil {
			return "", err
		}
		rep, err := fault.Analyze(d)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%-10s %-9s %8d %8d %8d %10.2f %12d %12d\n",
			c.app.Name, c.m, met.SenderMRRs, met.ReceiverMRRs, met.TotalSplitters,
			met.TotalWaveguideMM, rep.WorstSenderLoss, rep.WorstSegmentLoss), nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== device cost and single-fault exposure ===")
	fmt.Fprintf(w, "%-10s %-9s %8s %8s %8s %10s %12s %12s\n",
		"benchmark", "method", "sndMRR", "rcvMRR", "split", "wg[mm]", "worst snd", "worst seg")
	fmt.Fprint(w, strings.Join(rows, ""))
	return nil
}

// runMILPGap reports, for every benchmark, how close the splitter-aware
// heuristic lands to the exact assignment (Eq. 8 objective values), through
// the production exact path: the MILP, with the CP oracle run when the MILP
// does not prove optimality. The last column names the engine whose search
// proved the final assignment optimal, if any.
func runMILPGap(e *env, w io.Writer) error {
	fmt.Fprintln(w, "=== heuristic vs exact assignment on the Eq. 8 objective (SRing designs) ===")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %8s %10s %9s\n",
		"benchmark", "heuristic", "final", "bound", "nodes", "cp nodes", "proven")
	for _, app := range sring.Benchmarks() {
		opt := e.options(e.jobs)
		opt.UseMILP, opt.Oracle, opt.MILPTimeLimit = true, wavelength.OracleCP, 20*time.Second
		d, err := sring.SynthesizeContext(e.ctx, app, sring.MethodSRing, opt)
		if err != nil {
			return err
		}
		st := d.AssignStats
		bound, nodes, cpNodes, proven := "-", "-", "-", "no"
		if st.MILPRan {
			bound, nodes = fmt.Sprintf("%.3f", st.MILPBound), fmt.Sprint(st.MILPNodes)
		}
		if st.OracleRan {
			cpNodes = fmt.Sprint(st.OracleNodes)
			if !st.MILPRan || st.OracleBound > st.MILPBound {
				bound = fmt.Sprintf("%.3f", st.OracleBound)
			}
		}
		switch {
		case st.MILPExact:
			proven = "milp"
		case st.OracleExact:
			proven = "cp"
		}
		fmt.Fprintf(w, "%-10s %12.3f %12.3f %12s %8s %10s %9s\n",
			app.Name, st.Heuristic.Value, st.Final.Value, bound, nodes, cpNodes, proven)
	}
	return nil
}
