// Command sweep runs the extension experiments beyond the paper's
// evaluation (DESIGN.md §5, EXPERIMENTS.md "extensions"):
//
//	sweep -sensitivity   robustness of the Fig. 7 conclusion to the two
//	                     calibrated loss constants (splitter stage loss and
//	                     propagation loss): does SRing keep the lowest
//	                     power as they vary?
//	sweep -traffic       dynamic figures of merit from the packet-level
//	                     simulator: latency and laser energy per bit for
//	                     all methods on all benchmarks.
//	sweep -density       SRing-vs-CTORing power/wavelength crossover as
//	                     communication density grows.
//	sweep -crossbar      ring vs λ-router worst-case loss (paper Fig. 1).
//	sweep -scale         synthesis runtime scaling to 64-node networks,
//	                     with and without the initial-vertex cap.
//	sweep -resources     device cost (MRRs, splitters, waveguide) and
//	                     single-fault exposure per method.
//	sweep -milpgap       heuristic-vs-exact assignment quality (MILP, then
//	                     the CP oracle), with proven bounds and which engine
//	                     proved each optimum.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sring"
	"sring/internal/cli"
	"sring/internal/fault"
	"sring/internal/lambdarouter"
	"sring/internal/obs"
	"sring/internal/par"
	"sring/internal/sim"
	"sring/internal/wavelength"
)

// jobs is the -j worker count, used both inside each synthesis (solver and
// clustering parallelism) and to fan the benchmark × method grids out.
var jobs int

// runCtx is cancelled by ^C/SIGTERM; every synthesis call runs under it.
var runCtx = context.Background()

// cache is the shared stage cache: sweeps that revisit an application with
// only downstream parameters changed (the -sensitivity tech grid, the
// -milpgap budget) reuse the upstream construction/layout results. Nil
// when -nocache is set.
var cache *sring.Cache

// traceRec collects the span trace across every synthesis of the run when
// -trace-chrome or -telemetry is set; nil otherwise (tracing off). The
// recorder is safe for the concurrent syntheses forEachGridCell fans out.
var traceRec *sring.Recorder

func main() {
	var (
		sensitivity = flag.Bool("sensitivity", false, "loss-parameter sensitivity sweep")
		traffic     = flag.Bool("traffic", false, "packet-level latency/energy comparison")
		density     = flag.Bool("density", false, "communication-density crossover sweep")
		crossbar    = flag.Bool("crossbar", false, "ring vs crossbar (λ-router) comparison, paper Fig. 1")
		scale       = flag.Bool("scale", false, "synthesis runtime scaling beyond benchmark sizes")
		resources   = flag.Bool("resources", false, "device-cost and single-fault exposure comparison")
		milpgap     = flag.Bool("milpgap", false, "heuristic-vs-exact assignment quality and proven bounds")
		load        = flag.Float64("load", 0.5, "offered load for -traffic")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")
		nocache     = flag.Bool("nocache", false, "disable the shared stage cache (identical tables either way)")
		chromeFile  = flag.String("trace-chrome", "", "write the run's span trace as Chrome trace-event JSON (Perfetto-loadable) to this file")
		telemetry   = flag.String("telemetry", "", "serve live telemetry (Prometheus /metrics, /debug/pprof/, /trace.json) on this address")
		teleHold    = flag.Duration("telemetry-hold", 0, "with -telemetry, keep the endpoint serving this long after the sweeps finish")
	)
	flag.IntVar(&jobs, "j", 0, "worker count (0 = all CPUs, 1 = sequential; identical results either way)")
	flag.Parse()
	if !*nocache {
		cache = sring.NewCache()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx = ctx
	defer reportCache()
	if !*sensitivity && !*traffic && !*density && !*crossbar && !*scale && !*resources && !*milpgap {
		flag.Usage()
		os.Exit(2)
	}
	if *chromeFile != "" || *telemetry != "" {
		traceRec = sring.NewRecorder()
	}
	if *telemetry != "" {
		shutdown, err := cli.ServeTelemetry(ctx, os.Stderr, "sweep", *telemetry, *teleHold, traceRec.Snapshot)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}
	if *chromeFile != "" {
		defer writeChromeTrace(*chromeFile)
	}
	if *cpuProf != "" {
		stopProf, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: cpu profile:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
			}
		}()
	}
	if *sensitivity {
		runSensitivity()
	}
	if *traffic {
		runTraffic(*load)
	}
	if *density {
		runDensity()
	}
	if *crossbar {
		runCrossbar()
	}
	if *scale {
		runScale()
	}
	if *resources {
		runResources()
	}
	if *milpgap {
		runMILPGap()
	}
}

// runMILPGap reports, for every benchmark, how close the splitter-aware
// heuristic lands to the exact assignment (Eq. 8 objective values), through
// the production exact path: the MILP, with the CP oracle run when the MILP
// does not prove optimality. The last column names the engine whose search
// proved the final assignment optimal, if any.
func runMILPGap() {
	fmt.Println("=== heuristic vs exact assignment on the Eq. 8 objective (SRing designs) ===")
	fmt.Printf("%-10s %12s %12s %12s %8s %10s %9s\n",
		"benchmark", "heuristic", "final", "bound", "nodes", "cp nodes", "proven")
	for _, app := range sring.Benchmarks() {
		d, err := sring.SynthesizeContext(runCtx, app, sring.MethodSRing, sring.Options{
			UseMILP: true, Oracle: wavelength.OracleCP, MILPTimeLimit: 20 * time.Second,
			Parallelism: jobs, Cache: cache, Recorder: traceRec,
		})
		if err != nil {
			fatal(err)
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
		fmt.Printf("%-10s %12.3f %12.3f %12s %8s %10s %9s\n",
			app.Name, st.Heuristic.Value, st.Final.Value, bound, nodes, cpNodes, proven)
	}
}

// runResources compares the device cost (MRRs, splitters, waveguide) and
// the single-fault exposure of the four methods: the honest trade behind
// SRing's efficiency — fewer, more heavily loaded front-ends.
func runResources() {
	fmt.Println("=== device cost and single-fault exposure ===")
	fmt.Printf("%-10s %-9s %8s %8s %8s %10s %12s %12s\n",
		"benchmark", "method", "sndMRR", "rcvMRR", "split", "wg[mm]", "worst snd", "worst seg")
	forEachGridCell(func(app *sring.Application, m sring.Method) (string, error) {
		d, err := sring.SynthesizeContext(runCtx, app, m, sring.Options{Parallelism: 1, Cache: cache, Recorder: traceRec})
		if err != nil {
			return "", err
		}
		met, err := d.Metrics()
		if err != nil {
			return "", err
		}
		rep, err := fault.Analyze(d)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%-10s %-9s %8d %8d %8d %10.2f %12d %12d\n",
			app.Name, m, met.SenderMRRs, met.ReceiverMRRs, met.TotalSplitters,
			met.TotalWaveguideMM, rep.WorstSenderLoss, rep.WorstSegmentLoss), nil
	})
}

// forEachGridCell runs fn over the benchmark × method grid on the -j worker
// count — each cell runs its synthesis sequentially (Parallelism 1 inside
// fn) so the grid itself is the unit of parallelism — and prints the
// returned rows in grid order regardless of completion order.
func forEachGridCell(fn func(app *sring.Application, m sring.Method) (string, error)) {
	type cell struct {
		app *sring.Application
		m   sring.Method
	}
	var grid []cell
	for _, app := range sring.Benchmarks() {
		for _, m := range sring.Methods() {
			grid = append(grid, cell{app, m})
		}
	}
	rows := make([]string, len(grid))
	errs := make([]error, len(grid))
	par.ForEach(jobs, len(grid), func(i int) {
		rows[i], errs[i] = fn(grid[i].app, grid[i].m)
	})
	for i := range grid {
		if errs[i] != nil {
			fatal(errs[i])
		}
		fmt.Print(rows[i])
	}
}

// runScale extends Table II beyond the paper's sizes: synthesis runtime
// and solution quality for random low-density networks up to 64 nodes,
// with and without the initial-vertex cap.
func runScale() {
	fmt.Println("=== SRing synthesis scaling (random apps, density 1.5) ===")
	fmt.Printf("%-6s %-8s %14s %14s %12s\n", "#N", "trials", "runtime", "Lmax[mm]", "power[mW]")
	for _, n := range []int{16, 32, 48, 64} {
		app, err := sring.RandomApplication(n, n*3/2, 42)
		if err != nil {
			fatal(err)
		}
		for _, trials := range []int{0, 6} {
			if n > 32 && trials == 0 {
				continue // the uncapped paper algorithm is O(n^2) growths per L_max
			}
			start := time.Now()
			d, err := sring.SynthesizeContext(runCtx, app, sring.MethodSRing, sring.Options{ClusterTrials: trials, Parallelism: jobs, Recorder: traceRec})
			if err != nil {
				fatal(err)
			}
			met, err := d.Metrics()
			if err != nil {
				fatal(err)
			}
			label := "all"
			if trials > 0 {
				label = fmt.Sprintf("%d", trials)
			}
			fmt.Printf("%-6d %-8s %14s %14.2f %12.4f\n",
				n, label, time.Since(start).Round(time.Millisecond),
				met.LongestPathMM, met.TotalLaserPowerMW)
		}
	}
}

// runCrossbar quantifies the paper's Fig. 1 motivation: crossbar
// (λ-router) designs pay OSE and crossing losses that grow with the port
// count, while ring routers avoid them.
func runCrossbar() {
	fmt.Println("=== ring vs crossbar (λ-router), paper Fig. 1 ===")
	fmt.Printf("%-10s %14s %14s %14s %10s\n",
		"benchmark", "xbar il_w[dB]", "ring il_w[dB]", "SRing il_w[dB]", "xbar OSEs")
	tech := sring.DefaultTech()
	for _, app := range sring.Benchmarks() {
		xb, err := lambdarouter.Synthesize(app, 0.1)
		if err != nil {
			fatal(err)
		}
		mx, err := xb.Evaluate(tech)
		if err != nil {
			fatal(err)
		}
		ct, err := sring.SynthesizeContext(runCtx, app, sring.MethodCTORing, sring.Options{Parallelism: jobs, Cache: cache, Recorder: traceRec})
		if err != nil {
			fatal(err)
		}
		mc, err := ct.Metrics()
		if err != nil {
			fatal(err)
		}
		sr, err := sring.SynthesizeContext(runCtx, app, sring.MethodSRing, sring.Options{Parallelism: jobs, Cache: cache, Recorder: traceRec})
		if err != nil {
			fatal(err)
		}
		ms, err := sr.Metrics()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10s %14.2f %14.2f %14.2f %10d\n",
			app.Name, mx.WorstILdB, mc.WorstILdB, ms.WorstILdB, mx.TotalOSEs)
	}
}

// runDensity sweeps communication density on a fixed 12-node placement and
// tracks SRing's power and wavelength usage against CTORing's — the paper's
// Sec. IV-A "wavelength usage depends on the communication density"
// narrative as a generated curve.
func runDensity() {
	fmt.Println("=== density sweep: 12 nodes, growing message count (seed 3) ===")
	fmt.Printf("%-8s %-8s %14s %14s %10s %10s\n",
		"#M", "density", "SRing P[mW]", "CTORing P[mW]", "SRing #wl", "CTOR #wl")
	for _, m := range []int{12, 18, 24, 36, 48, 72, 96} {
		app, err := sring.RandomApplication(12, m, 3)
		if err != nil {
			fatal(err)
		}
		sr, err := sring.SynthesizeContext(runCtx, app, sring.MethodSRing, sring.Options{Parallelism: jobs, Cache: cache, Recorder: traceRec})
		if err != nil {
			fatal(err)
		}
		ct, err := sring.SynthesizeContext(runCtx, app, sring.MethodCTORing, sring.Options{Parallelism: jobs, Cache: cache, Recorder: traceRec})
		if err != nil {
			fatal(err)
		}
		ms, err := sr.Metrics()
		if err != nil {
			fatal(err)
		}
		mc, err := ct.Metrics()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8d %-8.1f %14.4f %14.4f %10d %10d\n",
			m, app.Density(), ms.TotalLaserPowerMW, mc.TotalLaserPowerMW,
			ms.NumWavelengths, mc.NumWavelengths)
	}
}

// runSensitivity sweeps the two calibrated constants and reports, per
// setting, on how many of the seven benchmarks SRing has the lowest total
// laser power.
func runSensitivity() {
	fmt.Println("=== sensitivity: benchmarks where SRing has the lowest laser power ===")
	fmt.Printf("%-28s %-10s %s\n", "parameter setting", "wins", "of 7 benchmarks")

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
		wins := 0
		total := 0
		for _, app := range sring.Benchmarks() {
			res, err := sring.EvaluateContext(runCtx, app, sring.Options{Tech: s.tech, Parallelism: jobs, Cache: cache, Recorder: traceRec})
			if err != nil {
				fatal(err)
			}
			total++
			best := true
			for _, m := range sring.Methods() {
				if m != sring.MethodSRing &&
					res[m].TotalLaserPowerMW < res[sring.MethodSRing].TotalLaserPowerMW {
					best = false
				}
			}
			if best {
				wins++
			}
		}
		fmt.Printf("%-28s %-10d %d\n", s.name, wins, total)
	}
}

// runTraffic simulates packet traffic on every design and prints latency
// and energy per bit.
func runTraffic(load float64) {
	fmt.Printf("=== packet-level comparison (load %.2f, 10 Gb/s per λ, 1 µs) ===\n", load)
	fmt.Printf("%-10s %-9s %10s %12s %12s %12s\n",
		"benchmark", "method", "packets", "avg lat[ns]", "thrpt[Gb/s]", "pJ/bit")
	forEachGridCell(func(app *sring.Application, m sring.Method) (string, error) {
		d, err := sring.SynthesizeContext(runCtx, app, m, sring.Options{Parallelism: 1, Cache: cache, Recorder: traceRec})
		if err != nil {
			return "", err
		}
		res, err := sim.Run(d, sim.Config{Seed: 7, Load: load})
		if err != nil {
			return "", err
		}
		if res.Collisions != 0 {
			return "", fmt.Errorf("%s/%s: %d collisions in a valid design", app.Name, m, res.Collisions)
		}
		return fmt.Sprintf("%-10s %-9s %10d %12.2f %12.2f %12.5f\n",
			app.Name, m, res.PacketsDelivered, res.AvgLatencyNS,
			res.ThroughputGbps, res.LaserEnergyPJPerBit), nil
	})
}

// writeChromeTrace dumps the accumulated span trace in Chrome trace-event
// JSON for Perfetto.
func writeChromeTrace(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return
	}
	if err := traceRec.WriteChromeTrace(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "sweep: chrome trace written to %s (load at ui.perfetto.dev)\n", path)
}

// reportCache prints the shared cache's hit/miss totals to stderr (tables
// on stdout stay byte-identical with and without the cache).
func reportCache() {
	if cache == nil {
		return
	}
	hits, misses := cache.Stats()
	fmt.Fprintf(os.Stderr, "sweep: stage cache: %d hits, %d misses, %d entries\n", hits, misses, cache.Len())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
