package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// The bucket mapping must be monotone, exact below histSub, and agree with
// bucketUpper: every value lands in the bucket whose [lower, upper] range
// contains it.
func TestBucketIndexUpperAgree(t *testing.T) {
	vals := []int64{0, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		if up := bucketUpper(i); v > up {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, up)
		}
		if i > 0 {
			if lowUp := bucketUpper(i - 1); v <= lowUp {
				t.Errorf("value %d at or below the previous bucket's bound %d", v, lowUp)
			}
		}
		if v < histSub && int64(i) != v {
			t.Errorf("small value %d not exact: bucket %d", v, i)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Errorf("negative value bucket = %d, want 0", got)
	}
	if got := bucketUpper(histBuckets - 1); got != math.MaxInt64 {
		t.Errorf("top bucket upper = %d, want MaxInt64", got)
	}
}

// Percentiles are bucket upper bounds with the exact max in the top bucket,
// so their relative error is bounded by the sub-bucket width (12.5%).
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d, want 1000/1/1000", s.Count, s.Min, s.Max)
	}
	if s.Sum != 1000*1001/2 {
		t.Errorf("sum = %d, want %d", s.Sum, 1000*1001/2)
	}
	checks := []struct {
		q     float64
		exact int64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.exact || float64(got) > float64(c.exact)*1.125+1 {
			t.Errorf("q%.2f = %d, want within [%d, %.0f]", c.q, got, c.exact, float64(c.exact)*1.125+1)
		}
	}
	if s.Quantile(1) != 1000 {
		t.Errorf("q1 = %d, want the exact max 1000", s.Quantile(1))
	}
}

// A nil histogram tolerates the full API.
func TestNilHistogram(t *testing.T) {
	var h *Histogram
	h.Record(5)
	h.RecordDuration(time.Second)
	h.RecordSince(time.Now())
	if h.Count() != 0 {
		t.Error("nil Count != 0")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Error("nil snapshot not zero")
	}
}

// The determinism contract: the snapshot of a histogram is byte-identical
// for any recording order or concurrency level, given the same multiset of
// values. Run under -race -cpu 1,4: GOMAXPROCS changes the interleaving but
// must not change a single snapshot byte.
func TestHistogramSnapshotDeterministic(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	value := func(w, i int) int64 {
		// A spread of magnitudes, deterministic per (worker, index).
		return int64((w+1)*(i+1)) % 100003
	}

	run := func() []byte {
		h := NewHistogram()
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perW; i++ {
					h.Record(value(w, i))
				}
			}(w)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(h.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := run()
	for r := 0; r < 3; r++ {
		if got := run(); !bytes.Equal(got, first) {
			t.Fatalf("snapshot differs across runs:\n%s\nvs\n%s", first, got)
		}
	}

	// The sequential reference must also match: concurrency is invisible.
	h := NewHistogram()
	for w := 0; w < workers; w++ {
		for i := 0; i < perW; i++ {
			h.Record(value(w, i))
		}
	}
	var seq bytes.Buffer
	if err := json.NewEncoder(&seq).Encode(h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), first) {
		t.Fatalf("concurrent snapshot differs from sequential:\n%s\nvs\n%s", seq.Bytes(), first)
	}
}

// Sub diffs bucket counts and recomputes percentiles, turning cumulative
// histograms into per-interval ones.
func TestHistSnapSub(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	before := h.Snapshot()
	for v := int64(1000); v <= 1100; v++ {
		h.Record(v)
	}
	d := h.Snapshot().Sub(before)
	if d.Count != 101 {
		t.Fatalf("delta count = %d, want 101", d.Count)
	}
	if d.Min < 900 || d.P50 < 1000 {
		t.Errorf("delta min/p50 = %d/%d, want the new observations only", d.Min, d.P50)
	}
	if got := h.Snapshot().Sub(nil); got.Count != 201 {
		t.Errorf("Sub(nil) count = %d, want the full 201", got.Count)
	}
	if got := before.Sub(before); got.Count != 0 {
		t.Errorf("self-delta count = %d, want 0", got.Count)
	}
}

// Registry deltas bracket an interval: counters subtract, histograms diff.
func TestRegistrySnapshotSub(t *testing.T) {
	reg := newRegistry(nil)
	reg.Counter("x.hits").Add(3)
	reg.Histogram("x.ns").Record(100)
	before := reg.Snapshot()
	reg.Counter("x.hits").Add(4)
	reg.Histogram("x.ns").Record(200)
	d := reg.Snapshot().Sub(before)
	if d.Counters["x.hits"] != 4 {
		t.Errorf("counter delta = %d, want 4", d.Counters["x.hits"])
	}
	if h := d.Histograms["x.ns"]; h == nil || h.Count != 1 {
		t.Errorf("histogram delta = %+v, want count 1", h)
	}
}

// Handles are stable and nil-registry lookups are tolerated.
func TestRegistryHandles(t *testing.T) {
	reg := newRegistry(nil)
	if reg.Counter("a") != reg.Counter("a") || reg.Histogram("b") != reg.Histogram("b") {
		t.Error("handles not stable across lookups")
	}
	var nilReg *Registry
	if nilReg.Counter("a") != nil || nilReg.Histogram("b") != nil {
		t.Error("nil registry returned non-nil handles")
	}
	nilReg.Counter("a").Add(1)      // must not panic
	nilReg.Histogram("b").Record(1) // must not panic
	if s := nilReg.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}
