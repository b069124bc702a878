// Package obs is the dependency-free observability layer of the synthesis
// pipeline: hierarchical wall-clock spans with typed attributes and
// timestamped events, atomic named counters, and a Recorder that snapshots
// everything into a structured JSON trace or a human-readable summary tree.
//
// A span is the one way to count: Span.Count and Span.Counter always count
// into the process registry (Default), and when the span belongs to a
// Recorder the same call also counts into that Recorder's per-run
// counters, which Trace.Counters reports. Every event is therefore counted
// by exactly one call, and a trace and a /metrics scrape agree on what
// each counter name means.
//
// The entire API is nil-tolerant: every method on a nil *Recorder, *Span or
// *Counter performs no allocation (enforced by test). Span methods other
// than the counting ones are no-ops on nil; Count and Counter on a nil Span
// reach the process registry only. The pipeline therefore threads span
// handles unconditionally — cluster search, simplex pivoting, branch and
// bound, wavelength assignment — and pays for a trace only when a caller
// opted in by constructing a Recorder.
//
// The whole API is safe for concurrent use: counters are atomic and each
// span carries its own mutex, so workers of the parallel synthesis layer
// can record attributes, events and child spans on sibling spans without
// contending on a recorder-global lock. Snapshot observes a consistent
// per-span state even while other goroutines are still recording.
//
// Typical use:
//
//	rec := obs.New()
//	sp := rec.StartSpan("synthesize")
//	sp.SetString("method", "SRing")
//	child := sp.StartSpan("cluster.synthesize")
//	child.Count("cluster.absorptions", 1)
//	child.End()
//	sp.End()
//	rec.WriteJSON(os.Stdout) // or fmt.Print(rec.Summary())
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clampFinite maps NaN and ±Inf onto representable values so a trace is
// always valid JSON (encoding/json rejects non-finite floats).
func clampFinite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// Recorder collects the spans and per-run counters of one traced operation.
type Recorder struct {
	start time.Time

	mu    sync.Mutex // guards roots only; spans guard themselves
	roots []*Span

	// counters holds the run's counters; each chains to the process
	// registry's counter of the same name.
	counters *Registry
}

// New returns an empty Recorder anchored at the current time.
func New() *Recorder {
	return &Recorder{start: time.Now(), counters: newRegistry(defaultRegistry)}
}

// StartSpan opens a root-level span. On a nil Recorder it returns nil, which
// every Span method tolerates.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{rec: r, name: name, start: time.Now()}
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
	return s
}

// Counter is an atomically updated named counter. A Recorder's counter
// chains to the process registry's counter of the same name: Add counts
// into both, and Value reads the counter's own count.
type Counter struct {
	n      atomic.Int64
	parent *Counter
}

// Add increments the counter and its parent. No-op on a nil Counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
	if c.parent != nil {
		c.parent.n.Add(n)
	}
}

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// attrKind discriminates the typed attribute payload.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrString
	attrBool
)

// attr is a typed key/value pair. Values are stored unboxed so recording an
// attribute never allocates an interface.
type attr struct {
	key  string
	kind attrKind
	i    int64
	f    float64
	s    string
	b    bool
}

func (a attr) value() interface{} {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrString:
		return a.s
	default:
		return a.b
	}
}

func (a attr) String() string {
	switch a.kind {
	case attrInt:
		return fmt.Sprintf("%s=%d", a.key, a.i)
	case attrFloat:
		return fmt.Sprintf("%s=%.4g", a.key, a.f)
	case attrString:
		return fmt.Sprintf("%s=%s", a.key, a.s)
	default:
		return fmt.Sprintf("%s=%t", a.key, a.b)
	}
}

// event is a timestamped (name, x, y) triple — e.g. the branch-and-bound
// gap trajectory records ("incumbent", objective, bound) points.
type event struct {
	name string
	at   time.Time
	x, y float64
}

// Span is one timed region of the pipeline, possibly with children.
type Span struct {
	rec   *Recorder
	name  string
	start time.Time

	mu       sync.Mutex // guards the fields below
	end      time.Time  // zero until End
	attrs    []attr
	events   []event
	children []*Span
}

// Enabled reports whether the span actually records (false on nil). Use it
// to skip computing telemetry-only values.
func (s *Span) Enabled() bool { return s != nil }

// StartSpan opens a child span. On a nil Span it returns nil. Concurrent
// workers may open children under the same parent; child order follows
// registration order.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{rec: s.rec, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. The first call wins; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

func (s *Span) addAttr(a attr) {
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// SetInt records an integer attribute (last write per key wins).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.addAttr(attr{key: key, kind: attrInt, i: v})
}

// SetFloat records a float attribute. Non-finite values are clamped so the
// trace stays marshalable.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.addAttr(attr{key: key, kind: attrFloat, f: clampFinite(v)})
}

// SetString records a string attribute.
func (s *Span) SetString(key, v string) {
	if s == nil {
		return
	}
	s.addAttr(attr{key: key, kind: attrString, s: v})
}

// SetBool records a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.addAttr(attr{key: key, kind: attrBool, b: v})
}

// Event records a timestamped (x, y) point under the span — e.g. the MILP
// gap trajectory as ("incumbent", objective, bound) pairs. Non-finite
// values are clamped so the trace stays marshalable.
func (s *Span) Event(name string, x, y float64) {
	if s == nil {
		return
	}
	e := event{name: name, at: time.Now(), x: clampFinite(x), y: clampFinite(y)}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Counter returns the named counter: the owning Recorder's per-run
// counter, which also counts into Default(), or on a nil Span Default()'s
// own. Hot loops resolve it once and Add to the handle.
func (s *Span) Counter(name string) *Counter {
	if s == nil {
		return defaultRegistry.Counter(name)
	}
	return s.rec.counters.Counter(name)
}

// Count adds n to the named counter (shorthand for Counter(name).Add).
func (s *Span) Count(name string, n int64) { s.Counter(name).Add(n) }

// --- Snapshots ---

// Trace is an immutable snapshot of a Recorder, shaped for JSON.
type Trace struct {
	StartedAt time.Time        `json:"started_at"`
	Spans     []*SpanSnap      `json:"spans"`
	Counters  map[string]int64 `json:"counters"`
}

// SpanSnap is one span in a Trace. Times are nanosecond offsets from the
// trace start so a trace is self-contained and diffable.
type SpanSnap struct {
	Name     string                 `json:"name"`
	StartNS  int64                  `json:"start_ns"`
	DurNS    int64                  `json:"dur_ns"`
	Open     bool                   `json:"open,omitempty"` // true if never ended
	Attrs    map[string]interface{} `json:"attrs,omitempty"`
	Events   []EventSnap            `json:"events,omitempty"`
	Children []*SpanSnap            `json:"children,omitempty"`
}

// EventSnap is one timestamped point.
type EventSnap struct {
	Name string  `json:"name"`
	AtNS int64   `json:"at_ns"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// Duration returns the span's wall-clock duration.
func (s *SpanSnap) Duration() time.Duration { return time.Duration(s.DurNS) }

// Snapshot captures the current state. Unfinished spans are marked Open with
// their duration measured up to the snapshot instant. Safe on nil (returns
// an empty trace).
func (r *Recorder) Snapshot() *Trace {
	t := &Trace{Counters: map[string]int64{}}
	if r == nil {
		return t
	}
	t.StartedAt = r.start
	now := time.Now()
	r.mu.Lock()
	roots := append([]*Span(nil), r.roots...)
	r.mu.Unlock()
	for _, s := range roots {
		t.Spans = append(t.Spans, snapSpan(s, r.start, now))
	}
	t.Counters = r.counters.Snapshot().Counters
	return t
}

func snapSpan(s *Span, origin, now time.Time) *SpanSnap {
	// Copy the mutable state under the span's own lock, then recurse
	// without holding it so concurrent recording on other spans proceeds.
	s.mu.Lock()
	end := s.end
	attrs := append([]attr(nil), s.attrs...)
	events := append([]event(nil), s.events...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	open := false
	if end.IsZero() {
		end, open = now, true
	}
	out := &SpanSnap{
		Name:    s.name,
		StartNS: s.start.Sub(origin).Nanoseconds(),
		DurNS:   end.Sub(s.start).Nanoseconds(),
		Open:    open,
	}
	if len(attrs) > 0 {
		out.Attrs = make(map[string]interface{}, len(attrs))
		for _, a := range attrs {
			out.Attrs[a.key] = a.value()
		}
	}
	for _, e := range events {
		out.Events = append(out.Events, EventSnap{
			Name: e.name,
			AtNS: e.at.Sub(origin).Nanoseconds(),
			X:    e.x,
			Y:    e.y,
		})
	}
	for _, c := range children {
		out.Children = append(out.Children, snapSpan(c, origin, now))
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Find returns the first span with the given name in depth-first order, or
// nil.
func (t *Trace) Find(name string) *SpanSnap {
	var dfs func(ss []*SpanSnap) *SpanSnap
	dfs = func(ss []*SpanSnap) *SpanSnap {
		for _, s := range ss {
			if s.Name == name {
				return s
			}
			if hit := dfs(s.Children); hit != nil {
				return hit
			}
		}
		return nil
	}
	return dfs(t.Spans)
}

// SumDuration totals the duration of every span with the given name — e.g.
// the aggregate time spent in "wavelength.milp" across a whole run.
func (t *Trace) SumDuration(name string) time.Duration {
	var total time.Duration
	var dfs func(ss []*SpanSnap)
	dfs = func(ss []*SpanSnap) {
		for _, s := range ss {
			if s.Name == name {
				total += s.Duration()
			}
			dfs(s.Children)
		}
	}
	dfs(t.Spans)
	return total
}

// Summary renders the trace as a human-readable tree followed by the sorted
// counter table.
func (t *Trace) Summary() string {
	var b strings.Builder
	for _, s := range t.Spans {
		writeSpan(&b, s, "")
	}
	if len(t.Counters) > 0 {
		names := make([]string, 0, len(t.Counters))
		width := 0
		for name := range t.Counters {
			names = append(names, name)
			if len(name) > width {
				width = len(name)
			}
		}
		sort.Strings(names)
		b.WriteString("counters:\n")
		for _, name := range names {
			fmt.Fprintf(&b, "  %-*s %12d\n", width, name, t.Counters[name])
		}
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s *SpanSnap, indent string) {
	fmt.Fprintf(b, "%s%s (%s", indent, s.Name, s.Duration().Round(time.Microsecond))
	if s.Open {
		b.WriteString(", open")
	}
	b.WriteString(")")
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%v", k, formatValue(s.Attrs[k]))
		}
	}
	b.WriteString("\n")
	for _, e := range s.Events {
		fmt.Fprintf(b, "%s  · %s (%.4g, %.4g) @%s\n",
			indent, e.Name, e.X, e.Y, time.Duration(e.AtNS).Round(time.Microsecond))
	}
	for _, c := range s.Children {
		writeSpan(b, c, indent+"  ")
	}
}

func formatValue(v interface{}) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.4g", f)
	}
	return fmt.Sprintf("%v", v)
}

// Summary is shorthand for Snapshot().Summary(). Safe on nil (empty string).
func (r *Recorder) Summary() string { return r.Snapshot().Summary() }
