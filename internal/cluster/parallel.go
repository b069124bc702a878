package cluster

import (
	"sync"

	"sring/internal/obs"
	"sring/internal/par"
)

// resolveSpecWorkers caps speculative probe workers at the core count (see
// par.ResolveSpeculative): look-ahead probes on a machine with no spare
// cores execute serially and steal time from the search's critical path.
// A var so tests can substitute par.Resolve and exercise the prober on
// single-core machines.
var resolveSpecWorkers = par.ResolveSpeculative

// specProbe is one speculative probe for a candidate L_max index. The
// goroutine sets pr, then closes done; the channel close orders that write
// before the search loop's read.
type specProbe struct {
	done chan struct{}
	pr   *probe
}

// prober runs L_max feasibility probes concurrently while the binary search
// keeps its exact sequential descent. buildSolution is a pure function of
// (problem, lmax), so probing a candidate early cannot change its verdict —
// only when it is computed. At every search step the prober speculatively
// starts the probes the descent could visit next (the candidate's BST
// subtree, breadth-first: both children before either grandchild), and the
// search consumes verdicts strictly in its own order, so the selected
// L_max, the absorption totals and every recorded bound span match the
// sequential run exactly. Only the cluster.spec.* counters are
// timing-dependent.
type prober struct {
	p       *problem
	valueAt func(k int) float64
	workers int

	wg        sync.WaitGroup
	probes    map[int]*specProbe // candidate index -> run; search goroutine only
	scheduled int64
	consumed  int64
}

func newProber(p *problem, valueAt func(k int) float64, workers int) *prober {
	return &prober{p: p, valueAt: valueAt, workers: workers, probes: map[int]*specProbe{}}
}

// launch starts the probe for candidate k unless it is already running.
func (pb *prober) launch(k int) {
	if _, ok := pb.probes[k]; ok {
		return
	}
	sp := &specProbe{done: make(chan struct{})}
	pb.probes[k] = sp
	pb.scheduled++
	pb.wg.Add(1)
	go func() {
		defer pb.wg.Done()
		defer close(sp.done)
		sp.pr = pb.p.run(pb.valueAt(k))
	}()
}

// speculate starts probes for up to `workers` candidates reachable from the
// current search interval [lo, hi]: the interval's mid (the value the search
// needs right now) plus its possible descendants in BST breadth-first
// order, so the likeliest next candidates go first.
func (pb *prober) speculate(lo, hi int) {
	queue := [][2]int{{lo, hi}}
	for budget := pb.workers; budget > 0 && len(queue) > 0; {
		iv := queue[0]
		queue = queue[1:]
		if iv[0] > iv[1] {
			continue
		}
		mid := (iv[0] + iv[1]) / 2
		pb.launch(mid)
		budget--
		queue = append(queue, [2]int{iv[0], mid - 1}, [2]int{mid + 1, iv[1]})
	}
}

// get blocks until candidate k's probe finishes and returns it. The caller
// charges its absorptions, so absorption telemetry accumulates in
// consumption order — identical to the sequential run; wasted probes
// contribute nothing.
func (pb *prober) get(k int) *probe {
	sp, ok := pb.probes[k]
	if !ok {
		// Defensive: speculate always launches the current mid first, but
		// solve inline rather than rely on that.
		return pb.p.run(pb.valueAt(k))
	}
	<-sp.done
	pb.consumed++
	return sp.pr
}

// close waits for outstanding speculative probes and flushes the
// speculation diagnostics.
func (pb *prober) close(sp *obs.Span) {
	pb.wg.Wait()
	sp.Count("cluster.spec.scheduled", pb.scheduled)
	sp.Count("cluster.spec.wasted", pb.scheduled-pb.consumed)
}
