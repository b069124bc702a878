package main

import (
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host's speed drifts by ±20% over tens of seconds, and changes
// within a second too (other tenants share its caches and memory
// bandwidth), which a run's median cannot average out. So every timing is
// calibrated: a short fixed kernel that uses only the standard library
// runs about ten times a second between ops, and a time t measured while
// the kernel took k — interpolated over t's interval — is reported as
// t · calibrationNominal / k. The program under test cannot change the
// kernel, so a faster program still reads faster; a slower host no longer
// does.

// calibrationNominal is the kernel time timings are scaled to: a reported
// t is the time on a machine where the kernel takes this long. On 2 vCPUs
// of an Intel Xeon (Sapphire Rapids, under KVM) it takes KERNEL_RANGE as
// the host's speed drifts.
const calibrationNominal = 4 * time.Millisecond

// calibrationInterval is the least time between two kernel runs. Sampling
// ten times a second follows the host's fast changes; once a second left
// twice the run-to-run spread on table1.
const calibrationInterval = 100 * time.Millisecond

var calibrationSink uint64

// kernel is the benchmark's resource mix in miniature — slice and map
// growth, sorting and hashing, with the collector running — on both CPUs
// at once, as the workloads use them. The collector is drained first, so
// garbage the program left behind does not slow the kernel down and cancel
// part of a genuine speed-up.
func kernel() time.Duration {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, parallelism)
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				m := make(map[int][]int)
				for i := 0; i < 5000; i++ {
					m[i%700] = append(m[i%700], i*7919%1000)
				}
				xs := make([]int, 0, 5000)
				for _, v := range m {
					xs = append(xs, v...)
				}
				sort.Ints(xs)
				h := fnv.New64a()
				for _, x := range xs {
					h.Write([]byte{byte(x), byte(x >> 8)})
				}
				sums[w] += h.Sum64()
			}
		}(w)
	}
	wg.Wait()
	for _, v := range sums {
		calibrationSink += v
	}
	return time.Since(start)
}

// calibration is the kernel's timeline over a run.
type calibration struct {
	at        []time.Time // kernel midpoints, increasing
	k         []time.Duration
	spent     time.Duration // wall time spent in kernel runs (and their GC)
	allocated uint64        // bytes the kernel runs allocated
}

func newCalibration() *calibration {
	kernel() // untimed: the first run pays for page faults
	c := &calibration{}
	c.sample()
	return c
}

// sample runs the kernel now.
func (c *calibration) sample() {
	allocs := heapBytes()
	start := time.Now()
	k := kernel()
	c.at = append(c.at, start.Add(time.Since(start)/2))
	c.k = append(c.k, k)
	c.spent += time.Since(start)
	c.allocated += heapBytes() - allocs
}

// maybe runs the kernel if calibrationInterval has passed since the last
// run. Harnesses call it between ops; on a nil calibration it does nothing.
func (c *calibration) maybe() {
	if c != nil && time.Since(c.at[len(c.at)-1]) >= calibrationInterval {
		c.sample()
	}
}

// kernelAt interpolates the kernel time at t, constant beyond the ends.
func (c *calibration) kernelAt(t time.Time) float64 {
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	switch {
	case i == 0:
		return float64(c.k[0])
	case i == len(c.at):
		return float64(c.k[len(c.k)-1])
	}
	f := float64(t.Sub(c.at[i-1])) / float64(c.at[i].Sub(c.at[i-1]))
	return float64(c.k[i-1]) + f*float64(c.k[i]-c.k[i-1])
}

// scale converts d, measured in the interval [start, start+span) (d
// excludes kernel runs inside it), to reference-machine time, using the
// kernel's mean over that interval.
func (c *calibration) scale(d time.Duration, start time.Time, span time.Duration) time.Duration {
	k := c.kernelAt(start)
	if span > 0 {
		end := start.Add(span)
		points := []time.Time{start}
		for _, t := range c.at {
			if t.After(start) && t.Before(end) {
				points = append(points, t)
			}
		}
		points = append(points, end)
		area := 0.0
		for i := 1; i < len(points); i++ {
			dt := float64(points[i].Sub(points[i-1]))
			area += dt * (c.kernelAt(points[i-1]) + c.kernelAt(points[i])) / 2
		}
		k = area / float64(span)
	}
	return time.Duration(float64(d) * float64(calibrationNominal) / k)
}
