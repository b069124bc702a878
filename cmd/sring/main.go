// Command sring synthesises an application-specific WRONoC ring router and
// prints the resulting design and its optical power metrics.
//
// Usage:
//
//	sring -bench MWD -method SRing [-milp] [-v]
//	sring -bench D128 -method SRing -cluster-trials 8 -milp -oracle cp
//	sring -app design.json -method CTORing
//	sring -list
//
// The application can be any builtin from the netlist registry (-bench:
// the seven paper benchmarks, the extended task graphs, and the synthetic
// scale apps up to 512 nodes — see -list) or a JSON file (-app) with the
// schema {"name": ..., "nodes": [{"name", "x", "y"}...],
// "messages": [{"src", "dst", "bandwidth"}...]}.
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
	"sring/internal/crosstalk"
	"sring/internal/design"
	"sring/internal/floorplan"
	"sring/internal/netlist"
	"sring/internal/render"
	"sring/internal/sim"
)

func main() {
	var (
		benchName  = flag.String("bench", "", "builtin application name from the netlist registry (see -list)")
		listApps   = flag.Bool("list", false, "list the registered builtin applications and exit")
		appFile    = flag.String("app", "", "JSON application file (alternative to -bench)")
		methodName = flag.String("method", "SRing", "synthesis method: SRing, ORNoC, CTORing, XRing")
		useMILP    = flag.Bool("milp", false, "enable the exact MILP wavelength assignment")
		milpLimit  = flag.Duration("milp-timeout", sring.DefaultMILPTimeLimit, "MILP time limit")
		oracle     = flag.String("oracle", "", `with -milp (an error without it), independent cross-check solver to run when the MILP cannot prove optimality ("cp": constraint-propagation search)`)
		jobs       = flag.Int("j", 0, "synthesis worker count (0 = all CPUs, 1 = sequential; same design either way)")
		treeHeight = flag.Int("tree-height", 0, "SRing L_max search tree height h (0 = default 6)")
		trials     = flag.Int("cluster-trials", 0, "cap SRing's initial clustering trials (0 = unlimited, the paper's behaviour)")
		verbose    = flag.Bool("v", false, "print rings and per-path detail")
		svgFile    = flag.String("svg", "", "write the layout as SVG to this file")
		jsonFile   = flag.String("json", "", "write the full design (structure, assignment, metrics) as JSON to this file")
		autoplace  = flag.Bool("autoplace", false, "place nodes by simulated annealing, ignoring the input's coordinates")
		runSim     = flag.Bool("sim", false, "run the packet-level transmission simulation")
		runXtalk   = flag.Bool("crosstalk", false, "run the worst-case crosstalk/SNR analysis")
		traceFile  = flag.String("trace", "", "write the synthesis telemetry trace as JSON to this file")
		chromeFile = flag.String("trace-chrome", "", "write the trace as Chrome trace-event JSON (Perfetto-loadable) to this file")
		timing     = flag.Bool("timing", false, "print the per-stage timing/counter summary tree")
		telemetry  = flag.String("telemetry", "", "serve live telemetry (Prometheus /metrics, /debug/pprof/, /trace.json) on this address, e.g. localhost:6060")
		teleHold   = flag.Duration("telemetry-hold", 0, "with -telemetry, keep the endpoint serving this long after synthesis finishes")
	)
	flag.Parse()

	if *listApps {
		for _, name := range netlist.Names() {
			fmt.Println(name)
		}
		return
	}
	app, err := loadApp(*benchName, *appFile, *autoplace)
	if err != nil {
		fatal(err)
	}
	if *autoplace {
		app, err = floorplan.Place(app, floorplan.Options{Seed: 1})
		if err != nil {
			fatal(err)
		}
	}
	var rec *sring.Recorder
	if *traceFile != "" || *chromeFile != "" || *timing || *telemetry != "" {
		rec = sring.NewRecorder()
	}
	// ^C cancels the synthesis gracefully: the engine returns its best
	// feasible design flagged Cancelled instead of dying mid-solve.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *telemetry != "" {
		shutdown, err := cli.ServeTelemetry(ctx, os.Stderr, "sring", *telemetry, *teleHold, rec.Snapshot)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}
	d, err := sring.SynthesizeContext(ctx, app, sring.Method(*methodName), sring.Options{
		UseMILP:       *useMILP,
		MILPTimeLimit: *milpLimit,
		Oracle:        *oracle,
		TreeHeight:    *treeHeight,
		ClusterTrials: *trials,
		Parallelism:   *jobs,
		Recorder:      rec,
	})
	if err != nil {
		fatal(err)
	}
	if d.Cancelled {
		fmt.Fprintln(os.Stderr, "sring: interrupted — reporting the best design found so far")
	}
	if st := d.AssignStats; st != nil && st.MILPSkipped {
		hint := ""
		if *oracle == "" {
			hint = "; -oracle cp searches it exactly"
		}
		fmt.Fprintf(os.Stderr, "sring: MILP skipped by its size gate: |S|×|Λ| = %d×%d = %d binaries%s\n",
			len(d.Infos), st.MILPPalette, len(d.Infos)*st.MILPPalette, hint)
	}
	if st := d.AssignStats; st != nil && st.OracleRan {
		fmt.Fprintf(os.Stderr, "sring: CP oracle ran (%d nodes, exact=%v, bound %.4f dB)\n",
			st.OracleNodes, st.OracleExact, st.OracleBound)
	}
	m, err := d.Metrics()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s router for %s (synthesised in %s)\n\n", d.Method, app, d.SynthesisTime.Round(time.Millisecond))
	fmt.Printf("  longest signal path L        %8.3f mm\n", m.LongestPathMM)
	fmt.Printf("  worst-case IL (il_w)         %8.3f dB\n", m.WorstILdB)
	fmt.Printf("  max splitters passed (#sp_w) %8d\n", m.MaxSplitters)
	fmt.Printf("  worst-case IL (il_w_all)     %8.3f dB\n", m.WorstILAlldB)
	fmt.Printf("  wavelengths (#wl)            %8d\n", m.NumWavelengths)
	fmt.Printf("  total laser power            %8.4f mW\n", m.TotalLaserPowerMW)
	fmt.Printf("  rings / node splitters       %8d / %d\n", m.NumRings, m.NodeSplitters)
	fmt.Printf("  layout: %d crossings, %d bends, %.2f mm waveguide\n",
		m.TotalCrossings, m.TotalBends, m.TotalWaveguideMM)

	if *verbose {
		fmt.Println("\nrings:")
		for _, r := range d.Rings {
			fmt.Printf("  %s\n", r)
		}
		fmt.Println("\npaths:")
		for i, pi := range d.Infos {
			fmt.Printf("  msg %2d: %2d -> %-2d  ring %d  λ%-2d  %.3f mm  L_s %.3f dB\n",
				i, pi.Path.Msg.Src, pi.Path.Msg.Dst, pi.Path.RingID,
				d.Assignment.Lambda[i], pi.Path.Length, pi.LossDB)
		}
	}

	if *runSim {
		res, err := sim.Run(d, sim.Config{Seed: 1})
		if err != nil {
			fatal(err)
		}
		fmt.Println("\ntransmission simulation (1 µs, load 0.5, 10 Gb/s per λ):")
		fmt.Printf("  packets delivered   %d (collisions: %d)\n", res.PacketsDelivered, res.Collisions)
		fmt.Printf("  avg / worst latency %.3f / %.3f ns\n", res.AvgLatencyNS, res.WorstLatencyNS)
		fmt.Printf("  throughput          %.2f Gb/s\n", res.ThroughputGbps)
		fmt.Printf("  laser energy        %.4f pJ/bit\n", res.LaserEnergyPJPerBit)
	}

	if *runXtalk {
		rep, err := crosstalk.Analyze(d, crosstalk.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nworst-case crosstalk analysis (25 dB drop suppression):")
		fmt.Printf("  worst-case SNR      %.2f dB\n", rep.WorstSNRdB)
		fmt.Printf("  aggressor pairs     %d\n", rep.TotalAggressorPairs)
	}

	if *svgFile != "" {
		f, err := os.Create(*svgFile)
		if err != nil {
			fatal(err)
		}
		if err := render.SVG(f, d); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nlayout written to %s\n", *svgFile)
	}

	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			fatal(err)
		}
		if err := design.EncodeJSON(f, d); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("design written to %s\n", *jsonFile)
	}

	if *timing {
		fmt.Println("\nsynthesis timing:")
		fmt.Print(rec.Summary())
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceFile)
	}
	if *chromeFile != "" {
		f, err := os.Create(*chromeFile)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace written to %s (load at ui.perfetto.dev)\n", *chromeFile)
	}
}

func loadApp(benchName, appFile string, raw bool) (*sring.Application, error) {
	switch {
	case benchName != "" && appFile != "":
		return nil, fmt.Errorf("use either -bench or -app, not both")
	case benchName != "":
		return sring.Benchmark(benchName)
	case appFile != "":
		f, err := os.Open(appFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if raw {
			// Placement comes from -autoplace; skip coordinate checks.
			return netlist.DecodeRaw(f)
		}
		return netlist.Decode(f)
	default:
		return nil, fmt.Errorf("specify -bench <name> or -app <file.json>")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sring:", err)
	os.Exit(1)
}
