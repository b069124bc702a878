package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a log-bucketed (HDR-style) distribution of non-negative
// int64 values — typically nanosecond durations. Recording is lock-free: a
// bucket index is computed from the value's bit pattern and a handful of
// atomic adds update the bucket, count, sum and extrema, so the hottest
// paths of the solvers can record into a shared histogram without
// contending on a mutex.
//
// The bucket layout is exact for small values and logarithmic above: values
// below 2^histSubBits each get their own bucket, and every octave
// [2^e, 2^(e+1)) above that is split into 2^histSubBits sub-buckets, for a
// worst-case relative quantile error of 2^-histSubBits (12.5%). The layout
// is a pure function of the value, so the snapshot of a histogram — bucket
// counts, count, sum, min, max and the percentiles derived from them — is
// byte-identical for any recording order or concurrency level, given the
// same multiset of recorded values (enforced by test under -race -cpu 1,4).
//
// Like the rest of the package, every method is a no-op (or zero) on a nil
// *Histogram. Create histograms with NewHistogram (or through a Registry):
// the zero value lacks the min-tracking sentinel.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	min   atomic.Int64 // MaxInt64 until the first observation
	max   atomic.Int64
	b     [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

const (
	// histSubBits sets the sub-bucket resolution: 2^histSubBits buckets
	// per octave, i.e. 12.5% worst-case relative error at 3 bits.
	histSubBits = 3
	histSub     = 1 << histSubBits
	// histBuckets covers the exact region [0, histSub) plus every octave
	// from 2^histSubBits up to 2^63.
	histBuckets = histSub + (63-histSubBits+1)*histSub
)

// bucketIndex maps a non-negative value to its bucket. Negative values
// clamp to bucket 0 (they do not occur on the duration paths; clamping
// keeps the index in range for arbitrary callers).
func bucketIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	exp := bits.Len64(u) - 1 // >= histSubBits
	sub := int((u >> (uint(exp) - histSubBits)) & (histSub - 1))
	return histSub + (exp-histSubBits)*histSub + sub
}

// bucketUpper returns the largest value that maps to bucket i — the "le"
// upper bound reported in snapshots and the Prometheus exposition.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := histSubBits + (i-histSub)/histSub
	if exp >= 63 { // the top octave's bounds overflow int64; clamp
		return math.MaxInt64
	}
	sub := (i - histSub) % histSub
	width := int64(1) << (uint(exp) - histSubBits)
	lower := int64(1)<<uint(exp) + int64(sub)*width
	upper := lower + width - 1
	if upper < lower { // the top bucket ends at MaxInt64
		return math.MaxInt64
	}
	return upper
}

// Record adds one observation. Negative values clamp to zero. Safe for
// concurrent use; no-op on a nil Histogram.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.b[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	h.count.Add(1)
}

// RecordDuration records a duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// RecordSince records the time elapsed since start, in nanoseconds.
func (h *Histogram) RecordSince(start time.Time) {
	if h == nil {
		return
	}
	h.RecordDuration(time.Since(start))
}

// Count returns the number of recorded observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnap is an immutable snapshot of a Histogram, shaped for JSON. The
// percentiles are bucket upper bounds (exact below 8 ns, within 12.5%
// above); Max is exact.
type HistSnap struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	// Buckets holds the non-empty buckets in increasing bound order.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: Count observations with
// values <= Upper (and above the previous bucket's bound).
type BucketCount struct {
	Upper int64 `json:"le"`
	Count int64 `json:"n"`
}

// Mean returns the arithmetic mean of the recorded values (0 when empty).
func (s *HistSnap) Mean() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the value at quantile q in [0, 1], computed from the
// snapshot's buckets: the upper bound of the bucket containing the q-th
// ranked observation, with the exact Max for q = 1 (and whenever the rank
// lands in the top non-empty bucket). Deterministic given the bucket
// counts.
func (s *HistSnap) Quantile(q float64) int64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return quantileFromBuckets(s.Buckets, s.Count, s.Max, q)
}

// quantileFromBuckets is the shared quantile kernel: rank = ceil(q*count)
// clamped to [1, count], walked over cumulative bucket counts. The last
// non-empty bucket reports the exact max instead of its (looser) bound.
func quantileFromBuckets(buckets []BucketCount, count, max int64, q float64) int64 {
	if count <= 0 || len(buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for i, b := range buckets {
		cum += b.Count
		if cum >= rank {
			if i == len(buckets)-1 {
				return max
			}
			return b.Upper
		}
	}
	return max
}

// Snapshot captures the histogram's current state. Under concurrent
// recording each bucket is read atomically but the set of reads is not a
// single atomic cut; once recording quiesces the snapshot is exact and
// deterministic. Safe on nil (zero snapshot).
func (h *Histogram) Snapshot() *HistSnap {
	s := &HistSnap{}
	if h == nil {
		return s
	}
	var total int64
	for i := range h.b {
		n := h.b[i].Load()
		if n == 0 {
			continue
		}
		total += n
		s.Buckets = append(s.Buckets, BucketCount{Upper: bucketUpper(i), Count: n})
	}
	// Derive count from the buckets read, not the count field: a Record
	// racing the snapshot may have bumped one but not the other, and the
	// percentile walk below must agree with the bucket totals.
	s.Count = total
	s.Sum = h.sum.Load()
	if total > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		s.P50 = quantileFromBuckets(s.Buckets, total, s.Max, 0.50)
		s.P90 = quantileFromBuckets(s.Buckets, total, s.Max, 0.90)
		s.P99 = quantileFromBuckets(s.Buckets, total, s.Max, 0.99)
	}
	return s
}

// Sub returns the histogram delta s − prev as a fresh snapshot: bucket
// counts, count and sum are subtracted, percentiles recomputed from the
// difference. Min and Max of a delta are approximated by the bucket bounds
// of the surviving observations (the atomically tracked extrema cannot be
// un-merged). Sub with a nil prev returns s itself. RegistrySnap.Sub uses
// it to attribute the process-wide registry histograms to one measured
// interval: snapshot before, snapshot after, Sub.
func (s *HistSnap) Sub(prev *HistSnap) *HistSnap {
	if prev == nil || prev.Count == 0 {
		return s
	}
	d := &HistSnap{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	pb := make(map[int64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		pb[b.Upper] = b.Count
	}
	for _, b := range s.Buckets {
		if n := b.Count - pb[b.Upper]; n > 0 {
			d.Buckets = append(d.Buckets, BucketCount{Upper: b.Upper, Count: n})
		}
	}
	if d.Count <= 0 || len(d.Buckets) == 0 {
		return &HistSnap{}
	}
	d.Min = d.Buckets[0].Upper
	d.Max = d.Buckets[len(d.Buckets)-1].Upper
	d.P50 = quantileFromBuckets(d.Buckets, d.Count, d.Max, 0.50)
	d.P90 = quantileFromBuckets(d.Buckets, d.Count, d.Max, 0.90)
	d.P99 = quantileFromBuckets(d.Buckets, d.Count, d.Max, 0.99)
	return d
}
