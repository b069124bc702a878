package sring

// Integration tests for the telemetry Recorder (internal/obs) as wired
// through the public Synthesize entry point, plus the dispatcher-level
// SynthesisTime guarantee.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// SynthesisTime is set by the Synthesize dispatcher for every method, not
// by the per-method front-ends.
func TestSynthesisTimeAllMethods(t *testing.T) {
	app := MWD()
	for _, m := range Methods() {
		d, err := Synthesize(app, m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if d.SynthesisTime <= 0 {
			t.Errorf("%s: SynthesisTime = %v, want > 0", m, d.SynthesisTime)
		}
	}
}

func TestRecorderTraceSRingMILP(t *testing.T) {
	rec := NewRecorder()
	before := DefaultRegistry().Snapshot()
	if _, err := Synthesize(MWD(), MethodSRing, Options{UseMILP: true, Recorder: rec, Cache: NewCache()}); err != nil {
		t.Fatal(err)
	}
	delta := DefaultRegistry().Snapshot().Sub(before).Counters
	tr := rec.Snapshot()

	// One counter path: every count the trace reports reached the process
	// registry through the same call, so each per-run counter equals its
	// registry delta (exact: no test runs in parallel with this one).
	for name, v := range tr.Counters {
		if delta[name] != v {
			t.Errorf("counter %q: trace %d, registry delta %d", name, v, delta[name])
		}
	}

	for _, name := range []string{
		"synthesize", "cluster.synthesize", "cluster.bound",
		"design.layout", "design.loss", "wavelength.assign",
		"wavelength.heuristic", "wavelength.milp", "milp.solve", "design.pdn",
	} {
		s := tr.Find(name)
		if s == nil {
			t.Fatalf("trace is missing span %q", name)
		}
		if s.Open {
			t.Errorf("span %q left open", name)
		}
		if s.DurNS < 0 {
			t.Errorf("span %q has negative duration %d", name, s.DurNS)
		}
	}
	root := tr.Find("synthesize")
	if got := root.Attrs["method"]; got != "SRing" {
		t.Errorf("root method attr = %v, want SRing", got)
	}

	for _, c := range []string{
		"cluster.search.iterations", "cluster.absorptions",
		"lp.solves", "lp.pivots.phase1", "milp.nodes",
		"pipeline.cache.misses", "pipeline.cache.construct.misses",
	} {
		if tr.Counters[c] <= 0 {
			t.Errorf("counter %q = %d, want > 0", c, tr.Counters[c])
		}
	}

	// The JSON emission must be well-formed and carry the same structure.
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if back.Find("milp.solve") == nil {
		t.Error("decoded trace lost the milp.solve span")
	}
	if back.Counters["lp.pivots.phase1"] != tr.Counters["lp.pivots.phase1"] {
		t.Error("decoded trace lost counters")
	}

	if sum := rec.Summary(); !strings.Contains(sum, "cluster.synthesize") ||
		!strings.Contains(sum, "lp.pivots.phase1") {
		t.Errorf("summary missing expected entries:\n%s", sum)
	}
}

// Every method records at least the shared design stages under the root
// span when a Recorder is supplied.
func TestRecorderTraceAllMethods(t *testing.T) {
	app := MWD()
	for _, m := range Methods() {
		rec := NewRecorder()
		if _, err := Synthesize(app, m, Options{Recorder: rec}); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		tr := rec.Snapshot()
		for _, name := range []string{"synthesize", "design.layout", "wavelength.assign", "design.pdn"} {
			if tr.Find(name) == nil {
				t.Errorf("%s: trace is missing span %q", m, name)
			}
		}
	}
}

// The nil-Recorder instrumentation path — exactly the calls the pipeline
// makes when Options.Recorder is unset — must not allocate. This is the
// regression guard keeping telemetry free for non-observed synthesis runs.
func TestNoRecorderPathZeroAlloc(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(200, func() {
		root := rec.StartSpan("synthesize")
		root.SetString("method", "SRing")
		root.SetInt("nodes", 12)
		child := root.StartSpan("cluster.synthesize")
		child.SetFloat("d1", 0.45)
		child.SetBool("feasible", true)
		child.Event("incumbent", 1, 2)
		child.Count("milp.nodes", 1)
		c := child.Counter("lp.pivots.phase1")
		c.Add(3)
		child.Count("lp.solves", 1)
		_ = child.Enabled()
		child.End()
		root.End()
	})
	if allocs != 0 {
		t.Errorf("nil-Recorder telemetry path allocates %.1f per op, want 0", allocs)
	}
}
