// Command benchmark is the repository's benchmark. It measures the paper's
// two judgements of a synthesis method — design quality (laser power,
// wavelength count) and synthesis time — on five seeded workloads, checks
// every output against goldens, and, in a traced run, splits the time into
// a per-layer ledger. Run it from the repository root:
//
//	bash cmd/benchmark/run.sh                         # all workloads, 12 s each
//	bash cmd/benchmark/run.sh -workload table1 -seed 3 -seconds 12 -trace 0
//	bash cmd/benchmark/run.sh -trace 1 -o out.json    # untraced and traced runs
//	bash cmd/benchmark/run.sh -compare a.json b.json  # bounds from BENCHMARK.json
//
// A single workload runs in this process and prints, as its last line, one
// JSON object with the keys correct, attempted, failed and metrics: the
// end-to-end metrics untraced (-trace 0), the per-layer metrics traced
// (-trace 1). -workload all (the default) runs each workload in its own
// child process, so set-up time and peak RSS belong to that workload
// alone. The command exits non-zero when any output differs from its
// golden. See README.md for the workloads, metrics and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// specPath is the benchmark's definition, read from the repository root:
// -compare takes each metric's bound from it.
const specPath = "BENCHMARK.json"

// runRecord is one run as written to the -o file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: table1, scale, exact, mpeg-bound, serve-sweep or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 12, "measured window per run, in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; with -workload all, run each workload untraced and traced")
		out      = flag.String("o", "", "write every run's result to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -o files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare wants two result files"))
		}
		worse, err := runCompare(os.Stdout, specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace wants 0 or 1, got %d", *trace))
	}
	if *seconds < 0 {
		fatal(errors.New("-seconds must be non-negative"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}

	var records []runRecord
	if *workload != "all" {
		// Chrome traces go next to the binary: into the build directory.
		cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: filepath.Dir(self)}
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, *workload, res)
		records = append(records, runRecord{Workload: *workload, Seed: *seed, Trace: cfg.trace, result: *res})
	} else {
		modes := []bool{false}
		if *trace == 1 {
			modes = append(modes, true)
		}
		for _, w := range workloads {
			for _, traced := range modes {
				rec, err := runChild(ctx, self, w.name, *seed, *seconds, traced)
				if err != nil {
					fatal(err)
				}
				records = append(records, *rec)
			}
		}
	}
	if *out != "" {
		if err := writeRecords(*out, records); err != nil {
			fatal(err)
		}
	}
	if *workload == "all" {
		printSummary(os.Stdout, records)
	}
	for _, r := range records {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

// runChild re-executes this binary for one workload and parses the result
// line it prints last. Its other output is passed through.
func runChild(ctx context.Context, self, workload string, seed uint64, seconds float64, traced bool) (*runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, os.Stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	rec := &runRecord{Workload: workload, Seed: seed, Trace: traced}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
		return nil, fmt.Errorf("%s: no result line (exit: %v)", workload, runErr)
	}
	return rec, nil
}

// printResult prints every metric by name with its unit, the notes, and
// the result JSON as the last line.
func printResult(w io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	line, err := json.Marshal(result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
}

// printSummary ends a multi-workload run with one line per run and, last,
// a JSON object over all of them.
func printSummary(w io.Writer, records []runRecord) {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range records {
		fmt.Fprintf(w, "%-12s seed=%d trace=%v correct=%v attempted=%d failed=%d\n",
			r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
}

func writeRecords(path string, records []runRecord) error {
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
