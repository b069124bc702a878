package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndSnapshot(t *testing.T) {
	rec := New()
	root := rec.StartSpan("synthesize")
	root.SetString("method", "SRing")
	root.SetInt("nodes", 12)
	root.SetFloat("lmax", 3.25)
	root.SetBool("milp", true)

	child := root.StartSpan("cluster.synthesize")
	child.Event("bound", 1, 0)
	child.End()
	root.End()

	child.Count("cluster.absorptions", 7)
	root.Counter("milp.nodes").Add(3)
	child.Counter("milp.nodes").Add(2)

	tr := rec.Snapshot()
	if len(tr.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1", len(tr.Spans))
	}
	r := tr.Spans[0]
	if r.Name != "synthesize" || r.Open {
		t.Errorf("root = %+v", r)
	}
	if got := r.Attrs["method"]; got != "SRing" {
		t.Errorf("method attr = %v", got)
	}
	if got := r.Attrs["nodes"]; got != int64(12) {
		t.Errorf("nodes attr = %v (%T)", got, got)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "cluster.synthesize" {
		t.Fatalf("children = %+v", r.Children)
	}
	if n := len(r.Children[0].Events); n != 1 {
		t.Fatalf("child has %d events, want 1", n)
	}
	if tr.Counters["cluster.absorptions"] != 7 || tr.Counters["milp.nodes"] != 5 {
		t.Errorf("counters = %v", tr.Counters)
	}
	if r.DurNS < r.Children[0].DurNS {
		t.Errorf("parent duration %d < child duration %d", r.DurNS, r.Children[0].DurNS)
	}
}

func TestAttrLastWriteWins(t *testing.T) {
	rec := New()
	sp := rec.StartSpan("s")
	sp.SetInt("k", 1)
	sp.SetInt("k", 2)
	sp.End()
	tr := rec.Snapshot()
	if got := tr.Spans[0].Attrs["k"]; got != int64(2) {
		t.Errorf("k = %v, want 2", got)
	}
	if n := len(tr.Spans[0].Attrs); n != 1 {
		t.Errorf("got %d attrs, want 1", n)
	}
}

func TestOpenSpanMarked(t *testing.T) {
	rec := New()
	sp := rec.StartSpan("never-ended")
	_ = sp
	tr := rec.Snapshot()
	if !tr.Spans[0].Open {
		t.Error("unfinished span not marked open")
	}
	if tr.Spans[0].DurNS < 0 {
		t.Errorf("negative duration %d", tr.Spans[0].DurNS)
	}
}

func TestEndIdempotent(t *testing.T) {
	rec := New()
	sp := rec.StartSpan("s")
	sp.End()
	first := rec.Snapshot().Spans[0].DurNS
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if second := rec.Snapshot().Spans[0].DurNS; second != first {
		t.Errorf("second End changed duration: %d -> %d", first, second)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rec := New()
	sp := rec.StartSpan("root")
	sp.StartSpan("leaf").End()
	sp.Event("incumbent", 12.5, 10)
	sp.End()
	sp.Count("lp.pivots.phase2", 42)

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tr Trace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.Find("leaf") == nil {
		t.Error("leaf span lost in round trip")
	}
	if tr.Counters["lp.pivots.phase2"] != 42 {
		t.Errorf("counters = %v", tr.Counters)
	}
	if len(tr.Spans[0].Events) != 1 || tr.Spans[0].Events[0].X != 12.5 {
		t.Errorf("events = %+v", tr.Spans[0].Events)
	}
}

func TestFindAndSumDuration(t *testing.T) {
	rec := New()
	root := rec.StartSpan("root")
	a := root.StartSpan("milp.solve")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.StartSpan("milp.solve")
	time.Sleep(time.Millisecond)
	b.End()
	root.End()
	tr := rec.Snapshot()
	if tr.Find("milp.solve") == nil {
		t.Fatal("Find missed a nested span")
	}
	if tr.Find("absent") != nil {
		t.Fatal("Find invented a span")
	}
	if total := tr.SumDuration("milp.solve"); total < 2*time.Millisecond {
		t.Errorf("SumDuration = %v, want >= 2ms", total)
	}
}

func TestSummaryTree(t *testing.T) {
	rec := New()
	root := rec.StartSpan("synthesize")
	root.SetString("method", "SRing")
	c := root.StartSpan("cluster.synthesize")
	c.End()
	root.End()
	root.Count("cluster.search.iterations", 6)

	s := rec.Summary()
	for _, want := range []string{"synthesize", "  cluster.synthesize", "method=SRing", "counters:", "cluster.search.iterations"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	rec := New()
	root := rec.StartSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := root.StartSpan("worker")
				sp.SetInt("i", int64(i))
				sp.Event("tick", float64(j), 0)
				sp.Count("work.items", 1)
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	tr := rec.Snapshot()
	if got := tr.Counters["work.items"]; got != 800 {
		t.Errorf("work.items = %d, want 800", got)
	}
	if got := len(tr.Spans[0].Children); got != 800 {
		t.Errorf("children = %d, want 800", got)
	}
}

// A span counts into the process registry every time, and into its
// Recorder's per-run counters when it has one; a nil span reaches the
// registry only, and another Recorder's counts stay out of a trace.
func TestSpanCountsIntoDefault(t *testing.T) {
	before := Default().Snapshot()
	rec, other := New(), New()
	sp := rec.StartSpan("run")
	sp.Count("span.test.events", 2)
	sp.StartSpan("child").Counter("span.test.events").Add(3)
	other.StartSpan("other").Count("span.test.events", 4)
	var nilSpan *Span
	nilSpan.Count("span.test.events", 5)

	if got := rec.Snapshot().Counters["span.test.events"]; got != 5 {
		t.Errorf("trace counter = %d, want 5", got)
	}
	if got := other.Snapshot().Counters["span.test.events"]; got != 4 {
		t.Errorf("other trace counter = %d, want 4", got)
	}
	if got := Default().Snapshot().Sub(before).Counters["span.test.events"]; got != 14 {
		t.Errorf("registry delta = %d, want 14", got)
	}
}

// TestNilPathZeroAlloc is the contract the whole pipeline relies on: with no
// Recorder attached, every obs call is free — no allocations at all.
func TestNilPathZeroAlloc(t *testing.T) {
	var rec *Recorder
	var counter *Counter
	allocs := testing.AllocsPerRun(200, func() {
		sp := rec.StartSpan("root")
		child := sp.StartSpan("child")
		child.SetInt("i", 1)
		child.SetFloat("f", 2.5)
		child.SetString("s", "x")
		child.SetBool("b", true)
		child.Event("e", 1, 2)
		child.Count("c", 1)
		child.End()
		sp.End()
		counter.Add(1)
		_ = counter.Value()
		_ = sp.Counter("n")
		_ = sp.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder path allocated %.1f times per run, want 0", allocs)
	}
}

func TestNilSnapshotAndSummary(t *testing.T) {
	var rec *Recorder
	tr := rec.Snapshot()
	if tr == nil || len(tr.Spans) != 0 {
		t.Fatalf("nil snapshot = %+v", tr)
	}
	if s := rec.Summary(); s != "" {
		t.Errorf("nil summary = %q", s)
	}
}
