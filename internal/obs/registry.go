package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry is a set of named counters and histograms. The process
// registry (Default) is the flat, always-on, process-lifetime aggregate
// behind a /metrics scrape or a percentile report over thousands of runs:
// every counted event reaches it, traced or not. A Recorder keeps a child
// registry of per-run counters whose handles chain to Default's, so one
// Span.Count feeds both read-outs (DESIGN.md §11). Histograms live in
// Default only. Neither feeds design content, so neither participates in
// cache keys or determinism.
//
// All methods are safe for concurrent use. Metric handles (Counter,
// Histogram) are stable for the life of the registry; hot paths resolve a
// handle once and then record through atomic operations only. The lookup
// methods are nil-tolerant and return nil handles on a nil Registry (which
// every handle method tolerates).
type Registry struct {
	parent *Registry // counters created here chain to parent's
	mu     sync.RWMutex
	counts map[string]*Counter
	hists  map[string]*Histogram
}

// newRegistry returns an empty registry whose counters chain to parent's
// (nil: no chaining).
func newRegistry(parent *Registry) *Registry {
	return &Registry{
		parent: parent,
		counts: make(map[string]*Counter),
		hists:  make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry served by the telemetry
// endpoint.
var defaultRegistry = newRegistry(nil)

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil Registry (and nil Counters tolerate Add/Value).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counts[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	parent := r.parent.Counter(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counts[name]; !ok {
		c = &Counter{parent: parent}
		r.counts[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil Registry (and nil Histograms tolerate Record/Snapshot).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// RegistrySnap is an immutable snapshot of a Registry, with metric names
// sorted, shaped for JSON. Given quiesced recording it is deterministic.
type RegistrySnap struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Histograms map[string]*HistSnap `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current state. Safe on nil (empty snap).
func (r *Registry) Snapshot() *RegistrySnap {
	s := &RegistrySnap{Counters: map[string]int64{}, Histograms: map[string]*HistSnap{}}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counts := make(map[string]*Counter, len(r.counts))
	for n, c := range r.counts {
		counts[n] = c
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()
	for n, c := range counts {
		s.Counters[n] = c.Value()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Sub returns the per-metric delta s − prev: counters subtracted,
// histograms diffed with HistSnap.Sub. Metrics absent from prev pass
// through unchanged. This turns cumulative process-wide metrics into
// per-interval ones: cmd/benchmark brackets each measured pass with two
// snapshots of Default, and tests bracket the call under test the same
// way. No test in the repo calls t.Parallel, so such a test delta is
// exactly the call's own counting.
func (s *RegistrySnap) Sub(prev *RegistrySnap) *RegistrySnap {
	if prev == nil {
		return s
	}
	d := &RegistrySnap{Counters: map[string]int64{}, Histograms: map[string]*HistSnap{}}
	for n, v := range s.Counters {
		d.Counters[n] = v - prev.Counters[n]
	}
	for n, h := range s.Histograms {
		d.Histograms[n] = h.Sub(prev.Histograms[n])
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promName maps a dotted metric name onto the Prometheus exposition
// grammar: every character outside [a-zA-Z0-9_] becomes '_', and a leading
// digit gains a '_' prefix. The repo's dotted conventions survive
// recognisably: lp.sparse.solves → lp_sparse_solves,
// pipeline.cache.hits → pipeline_cache_hits.
func promName(name string) string {
	out := make([]byte, 0, len(name)+1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters as `counter` metrics, histograms as
// cumulative-bucket `histogram` metrics with _bucket{le=...}, _sum and
// _count series. Metric names are emitted in sorted order so the output is
// deterministic; dotted names map through promName. Safe on nil.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", pn, n, pn, pn, snap.Counters[n])
	}

	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		pn := promName(n)
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s histogram\n", pn, n, pn)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", pn, b.Upper, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(bw, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", pn, h.Count)
	}
	return bw.Flush()
}
