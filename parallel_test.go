package sring

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"sring/internal/wavelength"
)

// designFingerprint is everything about a synthesised design that the
// determinism guarantee covers: the structure (rings), the wavelength
// assignment, the solver statistics, and the evaluated metrics. Wall-clock
// fields (SynthesisTime) are deliberately excluded.
type designFingerprint struct {
	Rings       interface{}
	Assignment  interface{}
	AssignStats interface{}
	Metrics     *Metrics
}

func fingerprint(t *testing.T, d *Design) designFingerprint {
	t.Helper()
	met, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return designFingerprint{
		Rings:       d.Rings,
		Assignment:  d.Assignment,
		AssignStats: d.AssignStats,
		Metrics:     met,
	}
}

// TestParallelSynthesisBitIdentical is the pipeline-level determinism
// contract: for every Table I benchmark and every method, synthesis with
// Parallelism 4 must produce the same design — rings, assignments, solver
// stats, metrics — as the fully sequential Parallelism 1 run.
func TestParallelSynthesisBitIdentical(t *testing.T) {
	for _, app := range Benchmarks() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			for _, m := range Methods() {
				seq, err := Synthesize(app, m, Options{Parallelism: 1})
				if err != nil {
					t.Fatalf("%s sequential: %v", m, err)
				}
				par, err := Synthesize(app, m, Options{Parallelism: 4})
				if err != nil {
					t.Fatalf("%s parallel: %v", m, err)
				}
				fs, fp := fingerprint(t, seq), fingerprint(t, par)
				if !reflect.DeepEqual(fs, fp) {
					t.Errorf("%s: parallel design diverged from sequential\n got %+v\nwant %+v", m, fp, fs)
				}
			}
		})
	}
}

// TestParallelSynthesisBitIdenticalMILP repeats the contract with the exact
// MILP assignment enabled (SRing, the paper's method) — the configuration
// where the parallel branch-and-bound actually works. On benchmarks above
// the MILP size gate the solve is skipped identically on both sides, which
// the AssignStats comparison also checks.
//
// The determinism guarantee covers searches that complete within their
// limits; a solve that hits its time limit stops at a wall-clock-dependent
// node and is not reproducible even sequentially, so those benchmarks are
// skipped here (with the limit visible in the skip message).
func TestParallelSynthesisBitIdenticalMILP(t *testing.T) {
	const budget = 5 * time.Second
	for _, app := range Benchmarks() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			opts := Options{Parallelism: 1, UseMILP: true, MILPTimeLimit: budget}
			seq, err := Synthesize(app, MethodSRing, opts)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if st := seq.AssignStats; st != nil && st.MILPRan && !st.MILPExact {
				t.Skipf("MILP hit the %s time limit; time-limited searches are timing-dependent by design", budget)
			}
			opts.Parallelism = 4
			par, err := Synthesize(app, MethodSRing, opts)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			fs, fp := fingerprint(t, seq), fingerprint(t, par)
			if !reflect.DeepEqual(fs, fp) {
				t.Errorf("parallel MILP design diverged from sequential\n got %+v\nwant %+v", fp, fs)
			}
		})
	}
}

// exactWorkUnits are the deterministic work units of one SRing synthesis
// with the exact MILP: the assignment statistics (explored nodes and
// MILPNodeFingerprint, the FNV-1a fold of the explored node sequence)
// plus the LP counters the run's Recorder collected (see lpWork).
type exactWorkUnits struct {
	milpRan                   bool
	nodes                     int
	fingerprint               uint64
	pivots, refactors, solves int64
}

// synthesizeWorkUnits runs one traced SRing synthesis with the exact MILP
// and returns its work units and assignment statistics.
func synthesizeWorkUnits(t *testing.T, app *Application, opts Options) (exactWorkUnits, *wavelength.Stats) {
	t.Helper()
	opts.Recorder = NewRecorder()
	d, err := Synthesize(app, MethodSRing, opts)
	if err != nil {
		t.Fatalf("parallelism %d: %v", opts.Parallelism, err)
	}
	st := d.AssignStats
	if st == nil {
		t.Fatalf("parallelism %d: no assignment statistics", opts.Parallelism)
	}
	w := exactWorkUnits{milpRan: st.MILPRan, nodes: st.MILPNodes, fingerprint: st.MILPNodeFingerprint}
	w.pivots, w.refactors, w.solves = lpWork(opts.Recorder)
	return w, st
}

// TestWorkStealingFingerprintDeterministic pins the exact assignment's
// work units on the paper apps the MILP settles: SRing synthesis with the
// exact MILP at Parallelism 1, 2, 4 and 8 must reproduce each app's pinned
// nodes, node fingerprint, simplex pivots, LU refactorisations and sparse
// LP solves, and byte-identical AssignStats across worker counts. Any
// change to the LP kernel's pivot sequence, the factorisation update, cut
// separation or the branch-and-bound order moves at least one pin. D26,
// 8PM-32 and 8PM-44 sit above the MILP size gate, so every run must skip
// the solve identically (MILPRan=false, no LP work). MPEG's time-limited
// solve is pinned at a node budget by TestMPEGBoundWorkUnits instead.
//
// Outside the race detector, each app's Parallelism-1 synthesis must also
// stay within its allocation ceiling, 1.25x the count measured when the
// pins were taken.
func TestWorkStealingFingerprintDeterministic(t *testing.T) {
	// A safety limit only: every solve here proves optimality in well under
	// a second, and a time-limited search would not be reproducible.
	const budget = time.Minute
	pins := []struct {
		app       *Application
		want      exactWorkUnits
		maxAllocs float64
	}{
		{MWD(), exactWorkUnits{true, 2, 0xcde73df3d4363e57, 57, 8, 7}, 5550},
		{VOPD(), exactWorkUnits{true, 1, 0x39fd12186c0f2fb7, 199, 15, 6}, 12870},
		{D26(), exactWorkUnits{}, 18470},
		{PM24(), exactWorkUnits{true, 1, 0x39fd12186c0f2fb7, 1025, 30, 1}, 411800},
		{PM32(), exactWorkUnits{}, 3990},
		{PM44(), exactWorkUnits{}, 4740},
	}
	for _, pin := range pins {
		pin := pin
		t.Run(pin.app.Name, func(t *testing.T) {
			opts := Options{Parallelism: 1, UseMILP: true, MILPTimeLimit: budget}
			got, seq := synthesizeWorkUnits(t, pin.app, opts)
			if seq.MILPRan && !seq.MILPExact {
				t.Fatalf("MILP did not prove optimality within %s", budget)
			}
			if got != pin.want {
				t.Errorf("parallelism 1: work units %+v, want %+v", got, pin.want)
			}
			for _, workers := range []int{2, 4, 8} {
				opts.Parallelism = workers
				par, st := synthesizeWorkUnits(t, pin.app, opts)
				if par != got {
					t.Errorf("parallelism %d: work units %+v, want %+v", workers, par, got)
				}
				if !reflect.DeepEqual(seq, st) {
					t.Errorf("parallelism %d: AssignStats diverged\n got %+v\nwant %+v", workers, st, seq)
				}
			}
			if raceEnabled {
				return // the race detector changes allocation counts
			}
			opts = Options{Parallelism: 1, UseMILP: true, MILPTimeLimit: budget}
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := Synthesize(pin.app, MethodSRing, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > pin.maxAllocs {
				t.Errorf("parallelism 1: %.0f allocations, ceiling %.0f", allocs, pin.maxAllocs)
			}
			t.Logf("%+v, %.0f allocations", got, allocs)
		})
	}
}

// TestEvaluateParallelMatchesSequential: the Evaluate fan-out must return
// the same per-method metrics as the sequential loop.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	seq, err := Evaluate(MWD(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Evaluate(MWD(), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel Evaluate diverged:\n got %+v\nwant %+v", par, seq)
	}
}

// TestEvaluatePartialResults: a failure must carry per-method errors of
// type MethodErrors rather than aborting with a bare error, and the
// returned map must still be usable.
func TestEvaluatePartialResults(t *testing.T) {
	bad := DefaultTech()
	bad.DropDB = -1 // rejected by validation in every method
	res, err := Evaluate(MWD(), Options{Tech: bad})
	if err == nil {
		t.Fatal("Evaluate with an invalid Tech succeeded")
	}
	var me MethodErrors
	ok := false
	if me, ok = err.(MethodErrors); !ok {
		t.Fatalf("Evaluate error is %T, want MethodErrors", err)
	}
	if len(me) != len(Methods()) {
		t.Errorf("%d method errors, want %d (all methods share Tech validation)", len(me), len(Methods()))
	}
	if res == nil {
		t.Error("Evaluate returned a nil map alongside MethodErrors; want the (possibly empty) partial results")
	}
	if len(res) != 0 {
		t.Errorf("%d methods succeeded with an invalid Tech", len(res))
	}
	msg := me.Error()
	for _, m := range Methods() {
		if !strings.Contains(msg, string(m)) {
			t.Errorf("MethodErrors message %q does not mention %s", msg, m)
		}
	}
}

// TestTechNormalization: the zero value means DefaultTech, a negative loss
// is rejected, and a partially populated struct is rejected with a hint —
// uniformly across methods.
func TestTechNormalization(t *testing.T) {
	partial := Tech{PropagationDBPerMM: 0.3, DropDB: 0.5} // no split ratio, no sensitivity
	for _, m := range Methods() {
		if _, err := Synthesize(MWD(), m, Options{Tech: partial}); err == nil {
			t.Errorf("%s accepted a partially populated Tech", m)
		} else if !strings.Contains(err.Error(), "loss.Default()") {
			t.Errorf("%s: error %q does not point at loss.Default()", m, err)
		}
		neg := DefaultTech()
		neg.CrossingDB = -0.1
		if _, err := Synthesize(MWD(), m, Options{Tech: neg}); err == nil {
			t.Errorf("%s accepted a negative loss", m)
		}
	}
}
