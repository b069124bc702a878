package milp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sring/internal/lp"
	"sring/internal/obs"
	"sring/internal/par"
)

// randomBinaryProgram builds a small random binary program (the same family
// as TestRandomBinaryProgramsVsBruteForce, but larger so the search tree is
// deep enough for speculation to matter).
func randomBinaryProgram(rng *rand.Rand, n, m int) *Problem {
	p := &Problem{
		LP:      lp.Problem{NumVars: n, Objective: make([]float64, n)},
		Integer: allInt(n),
	}
	for j := range p.LP.Objective {
		p.LP.Objective[j] = math.Round(rng.Float64()*20 - 10)
	}
	for i := 0; i < m; i++ {
		terms := map[int]float64{}
		for j := 0; j < n; j++ {
			if c := math.Round(rng.Float64() * 5); c != 0 {
				terms[j] = c
			}
		}
		p.LP.AddConstraint(lp.LE, math.Round(rng.Float64()*float64(3*n)), terms)
	}
	binaryBox(&p.LP)
	return p
}

// hardKnapsack builds a knapsack with irrational-ish weights and a tight
// capacity, whose LP relaxation is fractional at almost every node — the
// search explores tens of nodes, enough for speculation to engage.
func hardKnapsack(rng *rand.Rand, n int) *Problem {
	p := &Problem{
		LP:      lp.Problem{NumVars: n, Objective: make([]float64, n)},
		Integer: allInt(n),
	}
	terms := map[int]float64{}
	var tot float64 // summed in index order: map order would vary the capacity's last bits
	for j := 0; j < n; j++ {
		p.LP.Objective[j] = -(1 + rng.Float64()*9) // maximise value
		terms[j] = 1 + rng.Float64()*9
		tot += terms[j]
	}
	p.LP.AddConstraint(lp.LE, tot/2, terms)
	binaryBox(&p.LP)
	return p
}

// graphColoring builds a k-colouring model of a random graph on nv
// vertices: x[v][c] assigns vertex v colour c, y[c] opens colour c, each
// vertex takes one colour and adjacent vertices never share an open one.
// The objective counts open colours plus small random assignment costs.
// Like the wavelength model, its tree is wide and its bounds tie often.
func graphColoring(rng *rand.Rand, nv, k int, density float64) *Problem {
	n := nv*k + k
	p := &Problem{
		LP:      lp.Problem{NumVars: n, Objective: make([]float64, n)},
		Integer: allInt(n),
	}
	x := func(v, c int) int { return v*k + c }
	y := func(c int) int { return nv*k + c }
	for c := 0; c < k; c++ {
		p.LP.Objective[y(c)] = 1
		for v := 0; v < nv; v++ {
			p.LP.Objective[x(v, c)] = 0.01 * float64(1+rng.Intn(9))
		}
	}
	for v := 0; v < nv; v++ {
		terms := map[int]float64{}
		for c := 0; c < k; c++ {
			terms[x(v, c)] = 1
		}
		p.LP.AddConstraint(lp.EQ, 1, terms)
	}
	for u := 0; u < nv; u++ {
		for v := u + 1; v < nv; v++ {
			if rng.Float64() < density {
				for c := 0; c < k; c++ {
					p.LP.AddConstraint(lp.LE, 0, map[int]float64{x(u, c): 1, x(v, c): 1, y(c): -1})
				}
			}
		}
	}
	binaryBox(&p.LP)
	return p
}

// forceSpeculation lowers the speculation gates for the duration of a test
// so the deliberately small instances here exercise the prefetcher, which
// the production thresholds would route to the inline evaluator.
func forceSpeculation(t *testing.T) {
	t.Helper()
	oldSize, oldOpen, oldResolve := specMinProblemSize, specMinOpenNodes, resolveSpecWorkers
	specMinProblemSize, specMinOpenNodes = 0, 0
	resolveSpecWorkers = par.Resolve // ignore the core cap on 1-CPU CI boxes
	t.Cleanup(func() {
		specMinProblemSize, specMinOpenNodes, resolveSpecWorkers = oldSize, oldOpen, oldResolve
	})
}

// TestParallelMatchesSequential is the core determinism contract: the
// parallel solve must reproduce the sequential Result field for field —
// same status, same X, same objective, same bound, same node count.
func TestParallelMatchesSequential(t *testing.T) {
	forceSpeculation(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 24; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randomBinaryProgram(rng, 6+rng.Intn(6), 2+rng.Intn(4))
		} else {
			p = hardKnapsack(rng, 10+rng.Intn(6))
		}
		seq, err := Solve(p, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := Solve(p, Options{Parallelism: workers})
			if err != nil {
				t.Fatalf("trial %d parallelism %d: %v", trial, workers, err)
			}
			if got.Status != seq.Status {
				t.Fatalf("trial %d parallelism %d: status %v, sequential %v", trial, workers, got.Status, seq.Status)
			}
			if got.Objective != seq.Objective || got.Bound != seq.Bound {
				t.Fatalf("trial %d parallelism %d: objective/bound %v/%v, sequential %v/%v",
					trial, workers, got.Objective, got.Bound, seq.Objective, seq.Bound)
			}
			if got.Nodes != seq.Nodes {
				t.Fatalf("trial %d parallelism %d: %d nodes, sequential %d", trial, workers, got.Nodes, seq.Nodes)
			}
			if !reflect.DeepEqual(got.X, seq.X) {
				t.Fatalf("trial %d parallelism %d: X diverged\n got %v\nwant %v", trial, workers, got.X, seq.X)
			}
		}
	}
}

// TestParallelTelemetryMatchesSequential: LP pivot counters are attributed
// at consumption time, so lp.* and milp.* counters (bar the spec.*
// diagnostics) must be identical between sequential and parallel runs.
func TestParallelTelemetryMatchesSequential(t *testing.T) {
	forceSpeculation(t)
	rng := rand.New(rand.NewSource(11))
	p := hardKnapsack(rng, 14)

	run := func(workers int) *obs.Recorder {
		rec := obs.New()
		sp := rec.StartSpan("test")
		if _, err := Solve(p, Options{Parallelism: workers, Obs: sp}); err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		sp.End()
		return rec
	}
	seq, par := run(1), run(4)
	for _, name := range []string{
		"milp.nodes", "milp.incumbents",
		"lp.solves", "lp.pivots.phase1", "lp.pivots.phase2",
	} {
		if s, g := seq.Snapshot().Counters[name], par.Snapshot().Counters[name]; s != g {
			t.Errorf("counter %s: parallel %d, sequential %d", name, g, s)
		}
	}
	if par.Snapshot().Counters["milp.steal.scheduled"] == 0 {
		t.Error("parallel run scheduled no speculative solves")
	}
}

// TestParallelWithSeededIncumbent checks the publish path: a seeded
// incumbent lets workers skip, and the result still matches sequential.
func TestParallelWithSeededIncumbent(t *testing.T) {
	forceSpeculation(t)
	rng := rand.New(rand.NewSource(3))
	p := hardKnapsack(rng, 12)
	seq, err := Solve(p, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.X == nil {
		t.Skip("random instance infeasible")
	}
	opts := Options{Parallelism: 4, Incumbent: seq.X}
	got, err := Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Solve(p, Options{Parallelism: 1, Incumbent: seq.X})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != ref.Status || got.Objective != ref.Objective ||
		got.Nodes != ref.Nodes || !reflect.DeepEqual(got.X, ref.X) {
		t.Fatalf("seeded parallel diverged: got %+v want %+v", got, ref)
	}
}

// TestSpeculationGatedOnSmallProblems: below the size gate a parallel
// solve must route to the inline evaluator — no speculative solves are
// scheduled, and the result still matches the sequential one exactly.
func TestSpeculationGatedOnSmallProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := hardKnapsack(rng, 14) // 14 vars × 2 rows: far below specMinProblemSize

	run := func(workers int) (*Result, *obs.Recorder) {
		rec := obs.New()
		sp := rec.StartSpan("test")
		res, err := Solve(p, Options{Parallelism: workers, Obs: sp})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		sp.End()
		return res, rec
	}
	seq, _ := run(1)
	par4, rec := run(4)
	if n := rec.Snapshot().Counters["milp.steal.scheduled"]; n != 0 {
		t.Errorf("small problem scheduled %d speculative solves, want 0", n)
	}
	if par4.Status != seq.Status || par4.Objective != seq.Objective ||
		par4.Nodes != seq.Nodes || !reflect.DeepEqual(par4.X, seq.X) {
		t.Fatalf("gated parallel diverged: got %+v want %+v", par4, seq)
	}
}

// TestPrefetcherLazyStart: even above the size gate, a solve whose
// frontier never reaches specMinOpenNodes must not start the worker pool.
func TestPrefetcherLazyStart(t *testing.T) {
	oldSize, oldResolve := specMinProblemSize, resolveSpecWorkers
	specMinProblemSize = 0 // size gate open, open-node gate at production value
	resolveSpecWorkers = par.Resolve
	t.Cleanup(func() { specMinProblemSize, resolveSpecWorkers = oldSize, oldResolve })

	rng := rand.New(rand.NewSource(7))
	p := randomBinaryProgram(rng, 4, 2) // tree too small to grow a frontier
	rec := obs.New()
	sp := rec.StartSpan("test")
	if _, err := Solve(p, Options{Parallelism: 4, Obs: sp}); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if n := rec.Snapshot().Counters["milp.steal.scheduled"]; n != 0 {
		t.Errorf("tiny tree scheduled %d speculative solves, want 0", n)
	}
}

// TestNodeFingerprintDeterministic: the explored-node fingerprint (the
// FNV-1a fold of every (seq, bound) pair in exploration order) must be
// identical across worker counts — the strongest form of the determinism
// contract, sensitive to any reordering of pops, not just to the final
// Result fields.
func TestNodeFingerprintDeterministic(t *testing.T) {
	forceSpeculation(t)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randomBinaryProgram(rng, 7+rng.Intn(5), 2+rng.Intn(4))
		} else {
			p = hardKnapsack(rng, 11+rng.Intn(5))
		}
		seq, err := Solve(p, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		if seq.Nodes > 0 && seq.NodeFingerprint == 0 {
			t.Fatalf("trial %d: explored %d nodes but fingerprint is 0", trial, seq.Nodes)
		}
		for _, workers := range []int{2, 8} {
			got, err := Solve(p, Options{Parallelism: workers})
			if err != nil {
				t.Fatalf("trial %d parallelism %d: %v", trial, workers, err)
			}
			if got.NodeFingerprint != seq.NodeFingerprint {
				t.Fatalf("trial %d parallelism %d: fingerprint %#x, sequential %#x (nodes %d vs %d)",
					trial, workers, got.NodeFingerprint, seq.NodeFingerprint, got.Nodes, seq.Nodes)
			}
		}
	}
}

// TestParallelBruteForce re-runs the brute-force oracle with workers on, so
// exactness (not just seq-equivalence) is checked under the pool.
func TestParallelBruteForce(t *testing.T) {
	forceSpeculation(t)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(4)
		p := randomBinaryProgram(rng, n, 1+rng.Intn(3))
		bestObj := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			x := make([]float64, n)
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					x[j] = 1
				}
			}
			if obj, err := checkIncumbent(p, x); err == nil && obj < bestObj {
				bestObj = obj
			}
		}
		res, err := Solve(p, Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsInf(bestObj, 1) {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: status %v, want infeasible", trial, res.Status)
			}
			continue
		}
		if res.Status != Optimal || !approx(res.Objective, bestObj, 1e-6) {
			t.Fatalf("trial %d: got %v obj %v, brute force %v", trial, res.Status, res.Objective, bestObj)
		}
	}
}

// TestSpeculationFollowsPopOrder: the speculation window must track the
// nodes best-first pops next, so on a wide tree nearly every node that
// reaches the heap's top gets a speculative solve first. A window ranked
// by anything else (a pseudocost subtree estimate, say) fills with nodes
// the search reaches late or never while the rest are solved inline,
// scheduling 57 in this model's 200 nodes. The bound holds whatever the
// worker timing: every node that enters the window is scheduled.
func TestSpeculationFollowsPopOrder(t *testing.T) {
	forceSpeculation(t)
	p := graphColoring(rand.New(rand.NewSource(1)), 10, 4, 0.5)
	seq, err := Solve(p, Options{Parallelism: 1, NodeLimit: 200})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	sp := rec.StartSpan("test")
	got, err := Solve(p, Options{Parallelism: 2, NodeLimit: 200, Obs: sp})
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	if got.Nodes != seq.Nodes || got.NodeFingerprint != seq.NodeFingerprint {
		t.Fatalf("parallel explored %d nodes (fingerprint %#x), sequential %d (%#x)",
			got.Nodes, got.NodeFingerprint, seq.Nodes, seq.NodeFingerprint)
	}
	c := rec.Snapshot().Counters
	if n := c["milp.steal.scheduled"]; n < int64(got.Nodes/2) {
		t.Errorf("scheduled %d speculative solves in %d nodes, want at least %d", n, got.Nodes, got.Nodes/2)
	}
	if w, s := c["milp.steal.wasted"], c["milp.steal.scheduled"]; w > s {
		t.Errorf("wasted %d of %d scheduled", w, s)
	}
}
