package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"sring/internal/obs"
)

// telemetry is what the traced passes of a run record into: the program's
// own obs.Recorder, handed to every traced op, and the obs.Default()
// registry deltas bracketing each traced pass, plus Go runtime statistics.
type telemetry struct {
	rec      *obs.Recorder
	reg      map[string]int64
	histSum  map[string]int64 // registry histogram sums (ns for *.ns)
	histN    map[string]int64 // registry histogram observation counts
	gcCycles int64
	gcPause  time.Duration
	alloc    uint64

	before  *obs.RegistrySnap
	memPrev runtime.MemStats
}

func newTelemetry() *telemetry {
	return &telemetry{rec: obs.New(), reg: map[string]int64{},
		histSum: map[string]int64{}, histN: map[string]int64{}}
}

// recorder is the Recorder a traced op records into; nil on untraced
// passes, which every obs method tolerates.
func (tm *telemetry) recorder() *obs.Recorder {
	if tm == nil {
		return nil
	}
	return tm.rec
}

// begin and finish bracket one traced pass.
func (tm *telemetry) begin() {
	runtime.ReadMemStats(&tm.memPrev)
	tm.before = obs.Default().Snapshot()
}

func (tm *telemetry) finish() {
	d := obs.Default().Snapshot().Sub(tm.before)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for n, v := range d.Counters {
		tm.reg[n] += v
	}
	for n, h := range d.Histograms {
		tm.histSum[n] += h.Sum
		tm.histN[n] += h.Count
	}
	tm.gcCycles += int64(ms.NumGC - tm.memPrev.NumGC)
	tm.gcPause += time.Duration(ms.PauseTotalNs - tm.memPrev.PauseTotalNs)
	tm.alloc += ms.TotalAlloc - tm.memPrev.TotalAlloc
}

// counters looks counters up by name in either channel: the Recorder's
// snapshot or the registry deltas. Counters recorded in both channels count
// the same events, so the larger reading is taken; that keeps the benchmark
// valid when a counter moves between them.
type counters struct {
	rec, reg map[string]int64
}

func (c counters) count(name string) float64 {
	return float64(max(c.rec[name], c.reg[name]))
}

// heapBytes reads the cumulative heap allocation count without stopping
// the world.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
