package milp

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sring/internal/lp"
	"sring/internal/obs"
	"sring/internal/par"
)

// evaluator abstracts how solveBB obtains LP relaxation solutions for the
// nodes it explores. The sequential implementation solves inline; the
// parallel one pre-solves frontier nodes speculatively on a work-stealing
// pool. Either way the main loop consumes solutions in its own (canonical)
// order, so the search trajectory is identical.
type evaluator interface {
	// solve returns the LP relaxation solution for nd, plus the optimal
	// basis for warm-starting its children (nil unless Optimal). open is
	// the current frontier, which a speculative implementation may scan to
	// schedule work ahead; it must not be mutated.
	solve(nd *node, open *nodeHeap) (*lp.Solution, *lp.Basis, error)
	// publish announces a new (lower) incumbent objective so speculative
	// workers can skip nodes the main loop is guaranteed to prune.
	publish(objective float64)
	// close stops any workers and flushes speculation telemetry.
	close()
}

// specMinProblemSize gates speculation on LP size (vars × presolved rows).
// Below it a relaxation solves in microseconds, so handing nodes to another
// goroutine costs more than the overlap buys: without the gate MWD and
// VOPD ran slower at j=4 than at j=1, which BenchmarkParallelOverheadMWD
// guards against. MWD (44×90) and VOPD (90×190) fall under the threshold;
// MPEG (274×471) and the 8PM apps stay above it.
// A var only so tests can lower the gate to exercise the pool on
// deliberately small instances.
var specMinProblemSize = 50000

// specMinOpenNodes suppresses speculative scheduling while the frontier is
// smaller than this: the next pops are consumed immediately after being
// pushed, so a speculative solve would only race the main loop for the same
// node. Trees that never grow past it (small apps, root-proven solves)
// therefore never start the worker pool at all. A var for the same test
// reason.
var specMinOpenNodes = 4

// resolveSpecWorkers caps speculative workers at the core count (see
// par.ResolveSpeculative); tests substitute par.Resolve to exercise the
// pool on single-core machines.
var resolveSpecWorkers = par.ResolveSpeculative

// newEvaluator picks the implementation for the resolved worker count and
// problem size. interrupt (a context's Done channel, possibly nil) is
// installed in every LP solver the evaluator creates, the workers'
// included. The choice never changes results — both evaluators feed the
// main loop the same canonical solutions — only where they are computed.
func newEvaluator(pp *prepped, parallelism int, deadline time.Time, interrupt <-chan struct{}, sp *obs.Span) (evaluator, error) {
	rs, err := newRelaxSolver(pp, interrupt)
	if err != nil {
		return nil, err
	}
	size := pp.p.LP.NumVars * (len(pp.p.LP.Constraints) + 1)
	if workers := resolveSpecWorkers(parallelism); workers > 1 && size >= specMinProblemSize {
		return newStealPool(pp, rs, workers, deadline, interrupt, sp), nil
	}
	return &inlineEvaluator{rs: rs, deadline: deadline, sp: sp}, nil
}

// inlineEvaluator is the sequential path: every relaxation is solved on the
// calling goroutine at the moment the main loop needs it, against one
// persistent bounded-simplex arena.
type inlineEvaluator struct {
	rs       *relaxSolver
	deadline time.Time
	sp       *obs.Span
}

func (e *inlineEvaluator) solve(nd *node, _ *nodeHeap) (*lp.Solution, *lp.Basis, error) {
	sol, bas, err := e.rs.solve(nd, e.deadline)
	if err == nil {
		lp.AccumulateStats(e.sp, sol)
	}
	return sol, bas, err
}

func (e *inlineEvaluator) publish(float64) {}
func (e *inlineEvaluator) close()          {}

// lpFuture is one speculative relaxation solve. Its lifecycle is governed
// by the claim word: 0 while queued on a deque, 1 once claimed — by the
// worker that dequeued it (which then writes sol/err and closes done) or
// by the main loop (which reclaims the node to solve it inline, or retires
// the future once its node leaves the speculation window, leaving the
// stale deque entry for some worker to dequeue and drop). The
// compare-and-swap makes the two claims mutually exclusive, and the
// channel close orders the worker's writes before the main loop's reads.
type lpFuture struct {
	nd      *node
	claim   atomic.Uint32
	done    chan struct{}
	sol     *lp.Solution
	bas     *lp.Basis
	err     error
	skipped bool // worker declined: the node is certain to be pruned
	stolen  bool // solved by a worker other than the one it was placed on
}

// stealPool solves LP relaxations of likely-next frontier nodes on a pool
// of workers with per-worker deques and work stealing, while the main loop
// runs the exact sequential control flow.
//
// Scheduling: at every node it consumes, the main loop takes the window
// of the 2·workers open nodes it will pop next if no child overtakes them
// — the heap's top in canonical nodeLess order — retires queued futures
// whose node has dropped out of it, and places each uncovered window node
// on the deque of worker ((seq+1)/2) mod workers. Siblings land on the
// same worker, so the shared parent-basis LU memo is loaded from one arena
// instead of being refactorised twice. An owner pops its own deque from
// the front (its best-ranked work); an idle worker steals from the back of
// the first non-empty deque after its own (the work its owner would reach
// last), the classic deque discipline that keeps the two ends from
// contending over the same entries.
//
// Determinism: the main loop alone pops nodes, prunes, branches, updates
// pseudocosts and accepts incumbents — workers only ever run
// relaxSolver.solve, a pure function of (prepped problem, node): a warm
// start refactorises the node's parent basis canonically, so the result
// does not depend on which worker's arena ran it, nor on any tableau
// state left by earlier solves. A speculative result is consumed only when
// the main loop reaches that node in canonical heap order, so
// explored-node counts, fingerprints, incumbents, bounds and the final X
// match the sequential solve bit for bit. LP pivot counters are attributed
// at consumption time (lp.AccumulateStats), so lp.* telemetry matches the
// sequential run too; only the milp.steal.* diagnostics are
// timing-dependent.
//
// Workers skip a node when its parent bound already exceeds the published
// incumbent: the incumbent is monotone non-increasing and published only by
// the main loop, so the main loop's own prune test — the same inequality
// against an equal-or-lower objective — is then guaranteed to discard the
// node before asking for its solution. The consume path still re-solves
// inline if a skipped future is ever reached, keeping exactness independent
// of that argument.
type stealPool struct {
	pp        *prepped
	rs        *relaxSolver // main-goroutine solver for non-speculated nodes
	deadline  time.Time
	interrupt <-chan struct{} // installed in each worker's LP solver
	sp        *obs.Span       // counts consumed solves and the milp.steal.* diagnostics
	workers   int

	// mu guards the deques; cond wakes idle workers when work is pushed
	// or the pool closes.
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]*lpFuture
	closed bool
	wg     sync.WaitGroup
	// started is set (by the main goroutine) once the worker pool has been
	// launched; the pool starts lazily on the first scheduled task, so a
	// solve whose frontier never reaches specMinOpenNodes pays nothing.
	started bool

	// incumbent is the published incumbent objective as math.Float64bits
	// (+Inf until the first incumbent). Written by the main loop, read by
	// workers.
	incumbent atomic.Uint64

	// futures, queued, win and cand are touched only by the main goroutine
	// (solve/close); workers see futures solely through the deques.
	// futures maps every node with a live future; queued lists the futures
	// not yet seen claimed, the ones prefetch may retire; win and cand are
	// fillWindow's reused scratch.
	futures   map[*node]*lpFuture
	queued    []*lpFuture
	win       []*node
	cand      []int
	scheduled int64
	consumed  int64
	stolen    int64
	reclaimed int64
	retired   int64
}

func newStealPool(pp *prepped, rs *relaxSolver, workers int, deadline time.Time, interrupt <-chan struct{}, sp *obs.Span) *stealPool {
	f := &stealPool{
		pp:        pp,
		rs:        rs,
		deadline:  deadline,
		interrupt: interrupt,
		sp:        sp,
		workers:   workers,
		deques:    make([][]*lpFuture, workers),
		futures:   make(map[*node]*lpFuture),
	}
	f.cond = sync.NewCond(&f.mu)
	f.incumbent.Store(math.Float64bits(math.Inf(1)))
	return f
}

// start launches the worker pool; called from the main goroutine when the
// first speculative task is about to be scheduled.
func (f *stealPool) start() {
	f.started = true
	f.wg.Add(f.workers)
	for w := 0; w < f.workers; w++ {
		go f.worker(w)
	}
}

// next blocks until the pool closes or a future is available: the front of
// worker w's own deque first, else a steal from the back of the first
// non-empty deque after w (cyclic scan). The second return reports a
// steal.
func (f *stealPool) next(w int) (*lpFuture, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if q := f.deques[w]; len(q) > 0 {
			fut := q[0]
			q[0] = nil
			f.deques[w] = q[1:]
			return fut, false
		}
		for i := 1; i < f.workers; i++ {
			v := (w + i) % f.workers
			if q := f.deques[v]; len(q) > 0 {
				fut := q[len(q)-1]
				q[len(q)-1] = nil
				f.deques[v] = q[:len(q)-1]
				return fut, true
			}
		}
		if f.closed {
			return nil, false
		}
		f.cond.Wait()
	}
}

func (f *stealPool) worker(w int) {
	defer f.wg.Done()
	rs, err := newRelaxSolver(f.pp, f.interrupt)
	for {
		fut, wasSteal := f.next(w)
		if fut == nil {
			return
		}
		if !fut.claim.CompareAndSwap(0, 1) {
			continue // the main loop reclaimed it; stale deque entry
		}
		if err != nil {
			// The main goroutine's identical construction succeeded, so this
			// cannot normally happen; degrade to skipped futures (the consume
			// path re-solves inline).
			fut.skipped = true
			close(fut.done)
			continue
		}
		if inc := math.Float64frombits(f.incumbent.Load()); fut.nd.bound >= inc-1e-9 {
			fut.skipped = true
			close(fut.done)
			continue
		}
		fut.stolen = wasSteal
		fut.sol, fut.bas, fut.err = rs.solve(fut.nd, f.deadline)
		close(fut.done)
	}
}

func (f *stealPool) publish(objective float64) {
	// Only the main loop publishes, and incumbents only improve, so a plain
	// store keeps the value monotone non-increasing.
	f.incumbent.Store(math.Float64bits(objective))
}

// prefetch keeps the speculation window — the 2·workers open nodes the
// main loop pops next, in canonical nodeLess order — covered by futures.
// A queued future whose node has left the window is retired by the same
// claim CAS solve uses to reclaim one, so the worker that dequeues the
// stale entry drops it; a future a worker already holds runs to
// completion and stays available should its node be popped after all.
// Every window node without a future is then placed on its affine
// worker's deque, best first.
func (f *stealPool) prefetch(open *nodeHeap) {
	if open.Len() < specMinOpenNodes {
		return
	}
	f.fillWindow(*open)
	queued := f.queued[:0]
	for _, fut := range f.queued {
		switch {
		case f.futures[fut.nd] != fut:
			// Consumed by solve; its claim is settled there.
		case slices.Contains(f.win, fut.nd):
			queued = append(queued, fut)
		case fut.claim.CompareAndSwap(0, 1):
			delete(f.futures, fut.nd)
			f.retired++
		}
	}
	f.queued = queued
	scheduled := false
	for _, nd := range f.win {
		if _, ok := f.futures[nd]; ok {
			continue
		}
		if !scheduled {
			if !f.started {
				f.start()
			}
			f.mu.Lock()
			scheduled = true
		}
		fut := &lpFuture{nd: nd, done: make(chan struct{})}
		f.futures[nd] = fut
		f.queued = append(f.queued, fut)
		f.scheduled++
		// Sibling affinity: the down child (odd seq) and up child (even
		// seq) of one branch share (seq+1)/2 and hence a deque, so the
		// parent-basis factor memo is loaded once.
		wid := ((nd.seq + 1) / 2) % f.workers
		f.deques[wid] = append(f.deques[wid], fut)
	}
	if scheduled {
		f.mu.Unlock()
		f.cond.Broadcast()
	}
}

// fillWindow sets win to the 2·workers smallest nodes of the binary heap
// h in nodeLess order: a best-first walk down the heap tree whose
// candidate set (cand, heap indices) holds the children of every node
// taken so far. The smallest candidate is always the next-smallest heap
// entry, because no heap node is smaller than its parent.
func (f *stealPool) fillWindow(h nodeHeap) {
	win, cand := f.win[:0], f.cand[:0]
	if len(h) > 0 {
		cand = append(cand, 0)
	}
	for len(win) < 2*f.workers && len(cand) > 0 {
		b := 0
		for c := 1; c < len(cand); c++ {
			if nodeLess(h[cand[c]], h[cand[b]]) {
				b = c
			}
		}
		i := cand[b]
		cand[b] = cand[len(cand)-1]
		cand = cand[:len(cand)-1]
		win = append(win, h[i])
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) {
				cand = append(cand, c)
			}
		}
	}
	f.win, f.cand = win, cand
}

// solveInline runs nd on the main goroutine's own solver, attributing LP
// telemetry immediately.
func (f *stealPool) solveInline(nd *node) (*lp.Solution, *lp.Basis, error) {
	sol, bas, err := f.rs.solve(nd, f.deadline)
	if err == nil {
		lp.AccumulateStats(f.sp, sol)
	}
	return sol, bas, err
}

func (f *stealPool) solve(nd *node, open *nodeHeap) (*lp.Solution, *lp.Basis, error) {
	fut, ok := f.futures[nd]
	if ok {
		delete(f.futures, nd)
	}
	// Refill the speculation window before (possibly) blocking, so workers
	// stay busy while the main loop waits.
	f.prefetch(open)
	if !ok {
		return f.solveInline(nd)
	}
	if fut.claim.CompareAndSwap(0, 1) {
		// Still sitting unclaimed on a deque: reclaim it and solve inline
		// rather than wait for a worker to get around to it. The stale
		// deque entry is dropped when a worker's own claim fails.
		f.reclaimed++
		return f.solveInline(nd)
	}
	<-fut.done
	if fut.skipped {
		// The skip argument in the type comment says the main loop prunes
		// such nodes before asking; re-solve inline so correctness never
		// rests on it.
		return f.solveInline(nd)
	}
	f.consumed++
	if fut.stolen {
		f.stolen++
	}
	if fut.err == nil {
		lp.AccumulateStats(f.sp, fut.sol)
	}
	return fut.sol, fut.bas, fut.err
}

func (f *stealPool) close() {
	// Publishing −Inf makes workers skip everything still queued, so
	// shutdown does not wait on stale LP solves.
	f.incumbent.Store(math.Float64bits(math.Inf(-1)))
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	if f.started {
		f.wg.Wait()
	}
	f.sp.Count("milp.steal.scheduled", f.scheduled)
	f.sp.Count("milp.steal.wasted", f.scheduled-f.consumed)
	f.sp.Count("milp.steal.stolen", f.stolen)
	f.sp.Count("milp.steal.reclaimed", f.reclaimed)
	f.sp.Count("milp.steal.retired", f.retired)
}
