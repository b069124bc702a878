// Command experiments regenerates the SRing paper's evaluation (Sec. IV)
// and the extension studies beyond it (EXPERIMENTS.md), one section per
// argument:
//
//	experiments table1 fig7      Table I and Fig. 7
//	experiments all              every section, in the order below
//
// The sections:
//
//	table1       Table I: L, il_w, #sp_w, il_all for 4 methods x 7 benchmarks
//	table2       Table II: SRing runtime, with a per-stage breakdown
//	fig7         Fig. 7: total laser power and wavelength usage
//	fig8         Fig. 8: SRing against random solutions (MWD, VOPD)
//	sensitivity  benchmarks SRing wins as the two calibrated loss constants vary
//	traffic      packet-level latency and laser energy per bit
//	density      SRing-vs-CTORing crossover as communication density grows
//	crossbar     ring vs crossbar (λ-router) worst-case loss, paper Fig. 1
//	scale        SRing on random apps up to 64 nodes (runtimes on stderr)
//	resources    device cost and single-fault exposure per method
//	milpgap      heuristic vs exact assignment, with proven bounds
//
// Every section except table2 (wall time) and milpgap (MPEG's solve stops
// on its clock) prints the same bytes on every run, at any -j, with or
// without the stage cache; TestExperimentsMatchDocs pins those sections'
// output to EXPERIMENTS.md. Flags go before the section names.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sring"
	"sring/internal/cli"
	"sring/internal/obs"
	"sring/internal/par"
)

// section is one entry of the command's section table.
type section struct {
	name string
	// deterministic sections print the same bytes on every run; their
	// output is pinned to EXPERIMENTS.md.
	deterministic bool
	// grid sections fan the benchmark × method grid out over -j workers.
	grid bool
	run  func(e *env, w io.Writer) error
}

var sections = []section{
	{"table1", true, true, runTable1},
	{"table2", false, true, runTable2},
	{"fig7", true, true, runFig7},
	{"fig8", true, false, runFig8},
	{"sensitivity", true, false, runSensitivity},
	{"traffic", true, true, runTraffic},
	{"density", true, false, runDensity},
	{"crossbar", true, false, runCrossbar},
	{"scale", true, false, runScale},
	{"resources", true, true, runResources},
	{"milpgap", false, false, runMILPGap},
}

// env is what a section runs under.
type env struct {
	ctx context.Context
	// jobs is the -j worker count: the grid fan-out of grid sections and
	// the parallelism inside each synthesis of the others.
	jobs int
	// cache is the stage cache shared by every synthesis of the run; nil
	// runs uncached.
	cache *sring.Cache
	// rec collects the run's span trace; nil when tracing is off.
	rec *sring.Recorder
	// milp, csv, extended and samples are the paper sections' options.
	milp, csv, extended bool
	samples             int
	// log receives what must stay off the pinned stdout: wall-clock
	// readings.
	log io.Writer
}

// options returns synthesis options on the run's cache and trace, with
// parallelism workers inside the synthesis.
func (e *env) options(parallelism int) sring.Options {
	return sring.Options{Parallelism: parallelism, Cache: e.cache, Recorder: e.rec}
}

// synth synthesises app with method m and returns the design with its
// metrics.
func (e *env) synth(app *sring.Application, m sring.Method, opt sring.Options) (*sring.Design, *sring.Metrics, error) {
	d, err := sring.SynthesizeContext(e.ctx, app, m, opt)
	if err != nil {
		return nil, nil, err
	}
	met, err := d.Metrics()
	return d, met, err
}

// paperApps returns the paper's seven benchmarks, plus the extension
// benchmarks under -extended.
func (e *env) paperApps() []*sring.Application {
	apps := sring.Benchmarks()
	if e.extended {
		apps = append(apps, sring.ExtendedBenchmarks()...)
	}
	return apps
}

// cell is one (benchmark, method) pair of a grid.
type cell struct {
	app *sring.Application
	m   sring.Method
}

// grid lists apps × methods, benchmark-major.
func grid(apps []*sring.Application, methods []sring.Method) []cell {
	var cells []cell
	for _, app := range apps {
		for _, m := range methods {
			cells = append(cells, cell{app, m})
		}
	}
	return cells
}

// runGrid runs fn over cells on e.jobs workers and returns the results in
// grid order, whatever the completion order. Each cell runs its synthesis
// sequentially (Parallelism 1), so the grid is the unit of parallelism.
func runGrid[T any](e *env, cells []cell, fn func(cell) (T, error)) ([]T, error) {
	out := make([]T, len(cells))
	errs := make([]error, len(cells))
	par.ForEach(e.jobs, len(cells), func(i int) {
		out[i], errs[i] = fn(cells[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func main() {
	e := &env{log: os.Stderr}
	flag.IntVar(&e.jobs, "j", 0, "worker count (0 = all CPUs, 1 = sequential; identical output either way, except wall times)")
	flag.BoolVar(&e.milp, "milp", false, "exact MILP wavelength assignment in table1, table2, fig7 and fig8")
	flag.BoolVar(&e.csv, "csv", false, "CSV rows instead of formatted tables in table1 and fig7")
	flag.BoolVar(&e.extended, "extended", false, "add the extension benchmarks (PIP, H263, MP3, MMS) to table1, table2 and fig7")
	flag.IntVar(&e.samples, "samples", paperSamples, "random samples for fig8")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file on exit")
	chromeFile := flag.String("trace-chrome", "", "write the run's span trace as Chrome trace-event JSON (Perfetto-loadable) to this file")
	teleAddr := flag.String("telemetry", "", "serve live telemetry (Prometheus /metrics, /debug/pprof/, /trace.json) on this address")
	teleHold := flag.Duration("telemetry-hold", 0, "with -telemetry, keep the endpoint serving this long after the sections finish")
	flag.Usage = usage
	flag.Parse()
	chosen, err := pick(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(e, chosen, *cpuProf, *memProf, *chromeFile, *teleAddr, *teleHold); err != nil {
		fatal(err)
	}
}

// run sets up the run-wide plumbing (signals, cache, trace, telemetry,
// profiles) and prints the chosen sections to stdout in order.
func run(e *env, chosen []section, cpuProf, memProf, chromeFile, teleAddr string, teleHold time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e.ctx = ctx
	e.cache = sring.NewCache()
	if chromeFile != "" || teleAddr != "" {
		e.rec = sring.NewRecorder()
	}
	if teleAddr != "" {
		shutdown, err := cli.ServeTelemetry(ctx, os.Stderr, "experiments", teleAddr, teleHold, e.rec.Snapshot)
		if err != nil {
			return err
		}
		defer shutdown()
	}
	if cpuProf != "" {
		stopProf, err := obs.StartCPUProfile(cpuProf)
		if err != nil {
			return err
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: cpu profile:", err)
			}
		}()
	}
	if memProf != "" {
		defer func() {
			if err := obs.WriteHeapProfile(memProf); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	for _, s := range chosen {
		if err := s.run(e, os.Stdout); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	hits, misses := e.cache.Stats()
	fmt.Fprintf(os.Stderr, "experiments: stage cache: %d hits, %d misses, %d entries\n", hits, misses, e.cache.Len())
	if chromeFile != "" {
		return writeChromeTrace(e.rec, chromeFile)
	}
	return nil
}

// pick resolves section names ("all" for every section) against the
// section table.
func pick(names []string) ([]section, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("no section named")
	}
	var chosen []section
	for _, name := range names {
		if name == "all" {
			chosen = append(chosen, sections...)
			continue
		}
		s, ok := lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown section %q", name)
		}
		chosen = append(chosen, s)
	}
	return chosen, nil
}

func lookup(name string) (section, bool) {
	for _, s := range sections {
		if s.name == name {
			return s, true
		}
	}
	return section{}, false
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [flags] section... | all")
	fmt.Fprint(os.Stderr, "sections:")
	for _, s := range sections {
		fmt.Fprint(os.Stderr, " ", s.name)
	}
	fmt.Fprintln(os.Stderr)
	flag.PrintDefaults()
}

// writeChromeTrace writes the run's span trace in Chrome trace-event JSON
// for Perfetto.
func writeChromeTrace(rec *sring.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: chrome trace written to %s (load at ui.perfetto.dev)\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
