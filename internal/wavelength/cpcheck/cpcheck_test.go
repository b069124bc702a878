package cpcheck

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refEvaluate is an independent Eq. 8 evaluator written directly from the
// problem statement, deliberately sharing nothing with the solver's
// incremental bookkeeping.
func refEvaluate(p Problem, lambda []int) (float64, bool) {
	for i, l := range lambda {
		if l < 0 || l >= p.MaxLambda {
			return 0, false
		}
		for _, j := range p.Adj[i] {
			if lambda[j] == l && j != i {
				return 0, false
			}
		}
	}
	// A node needs a splitter when two of its paths on different rings
	// share a wavelength.
	splitter := make(map[int]bool)
	for i := range p.Paths {
		for j := range p.Paths {
			if i == j || p.Paths[i].Node != p.Paths[j].Node {
				continue
			}
			if p.Paths[i].Ring != p.Paths[j].Ring && lambda[i] == lambda[j] {
				splitter[p.Paths[i].Node] = true
			}
		}
	}
	perColor := make([]float64, p.MaxLambda)
	var worst float64
	for i, l := range lambda {
		il := p.Paths[i].LossDB
		if splitter[p.Paths[i].Node] {
			il += p.W.SplitterDB
		}
		worst = math.Max(worst, il)
		perColor[l] = math.Max(perColor[l], il)
	}
	used, sum := 0, 0.0
	for _, v := range perColor {
		if v > 0 {
			used++
			sum += v
		}
	}
	return p.W.Alpha*float64(used) + p.W.Beta*worst + p.W.Gamma*sum, true
}

// bruteForce enumerates all p.MaxLambda^n assignments.
func bruteForce(p Problem) (float64, []int) {
	n := len(p.Paths)
	lambda := make([]int, n)
	best := math.Inf(1)
	var bestL []int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if v, ok := refEvaluate(p, lambda); ok && v < best {
				best = v
				bestL = append([]int(nil), lambda...)
			}
			return
		}
		for c := 0; c < p.MaxLambda; c++ {
			lambda[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestL
}

func randomProblem(rng *rand.Rand) Problem {
	n := 3 + rng.Intn(4) // 3..6 paths
	p := Problem{
		Paths:     make([]Path, n),
		Adj:       make([][]int, n),
		MaxLambda: 2 + rng.Intn(3), // 2..4
		W:         Weights{Alpha: 1, Beta: 1, Gamma: 1, SplitterDB: 3.3},
	}
	for i := range p.Paths {
		p.Paths[i] = Path{
			Node:   rng.Intn(3),
			Ring:   rng.Intn(2),
			LossDB: 3 + rng.Float64()*2,
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				p.Adj[i] = append(p.Adj[i], j)
				p.Adj[j] = append(p.Adj[j], i)
			}
		}
	}
	return p
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng)
		want, _ := bruteForce(p)
		res, err := Solve(context.Background(), p, nil, time.Time{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Exact {
			t.Fatalf("trial %d: not exact without a deadline", trial)
		}
		if math.IsInf(want, 1) {
			if res.Lambda != nil {
				t.Fatalf("trial %d: brute force infeasible but solver found %v", trial, res.Lambda)
			}
			continue
		}
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: solver %.9f, brute force %.9f", trial, res.Objective, want)
		}
		if v, ok := refEvaluate(p, res.Lambda); !ok || math.Abs(v-res.Objective) > 1e-6 {
			t.Fatalf("trial %d: reported objective %.9f but assignment evaluates to %.9f (valid=%v)",
				trial, res.Objective, v, ok)
		}
		if res.Bound > want+1e-6 {
			t.Fatalf("trial %d: bound %.9f exceeds optimum %.9f", trial, res.Bound, want)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	// A 3-clique with a 2-color palette has no proper coloring.
	p := Problem{
		Paths:     []Path{{0, 0, 4}, {1, 0, 4}, {2, 0, 4}},
		Adj:       [][]int{{1, 2}, {0, 2}, {0, 1}},
		MaxLambda: 2,
		W:         Weights{Alpha: 1, Beta: 1, Gamma: 1, SplitterDB: 3.3},
	}
	res, err := Solve(context.Background(), p, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Lambda != nil {
		t.Fatalf("want exact infeasible, got exact=%v lambda=%v", res.Exact, res.Lambda)
	}
	if !math.IsInf(res.Objective, 1) {
		t.Fatalf("objective of infeasible instance = %v, want +Inf", res.Objective)
	}
}

func TestSolveSeedIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng)
		want, seed := bruteForce(p)
		if seed == nil {
			continue
		}
		res, err := Solve(context.Background(), p, seed, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: seeded solve %.9f, optimum %.9f", trial, res.Objective, want)
		}
	}
}

func TestSolveExpiredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(rng)
	want, _ := bruteForce(p)
	// An already-expired deadline: the search may abort at any node, but
	// the result must stay internally consistent.
	res, err := Solve(context.Background(), p, nil, time.Now().Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda != nil {
		if v, ok := refEvaluate(p, res.Lambda); !ok || math.Abs(v-res.Objective) > 1e-6 {
			t.Fatalf("aborted solve returned inconsistent incumbent (valid=%v, %.9f vs %.9f)", ok, v, res.Objective)
		}
	}
	if !math.IsInf(want, 1) && res.Bound > want+1e-6 {
		t.Fatalf("aborted bound %.9f exceeds optimum %.9f", res.Bound, want)
	}
}

func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng)
		a, err := Solve(context.Background(), p, nil, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(context.Background(), p, nil, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Nodes != b.Nodes || a.Objective != b.Objective {
			t.Fatalf("trial %d: nondeterministic search: %d/%f vs %d/%f",
				trial, a.Nodes, a.Objective, b.Nodes, b.Objective)
		}
		for i := range a.Lambda {
			if a.Lambda[i] != b.Lambda[i] {
				t.Fatalf("trial %d: assignments differ at %d", trial, i)
			}
		}
	}
}

func TestSolveRejectsMalformedProblem(t *testing.T) {
	paths := []Path{{0, 0, 4}, {1, 0, 4}, {2, 0, 4}}
	w := Weights{Alpha: 1, Beta: 1, Gamma: 1, SplitterDB: 3.3}
	for _, tc := range []struct {
		name string
		adj  [][]int
		w    Weights
		want string
	}{
		{"short adjacency", [][]int{{1}, {0}}, w, "covers 2 paths"},
		{"index above range", [][]int{{1, 3}, {0}, {}}, w, "outside 0..2"},
		{"negative index", [][]int{{1}, {0, -1}, {}}, w, "outside 0..2"},
		{"self-loop", [][]int{{1}, {0}, {2}}, w, "lists itself"},
		{"asymmetric edge", [][]int{{1, 2}, {0}, {}}, w, "asymmetric"},
		{"negative splitter loss", [][]int{{1}, {0}, {}}, Weights{Alpha: 1, SplitterDB: -1}, "negative SplitterDB"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Problem{Paths: paths, Adj: tc.adj, MaxLambda: 3, W: tc.w}
			_, err := Solve(context.Background(), p, nil, time.Time{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Solve error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestSearchAllocatesNothing runs warmed root-to-exhaustion searches and
// demands zero allocations, and that each search leaves the incremental
// state exactly at the root.
func TestSearchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var nodes int64
	for trial := 0; trial < 40; trial++ {
		p, seed := oracleProblem(rng)
		s, err := newSolver(context.Background(), p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		start := math.Inf(1)
		if v, ok := s.evaluate(seed); ok {
			start = v
		}
		run := func() {
			s.nodes, s.bestVal, s.best = 0, start, s.best[:0]
			s.search()
		}
		if a := testing.AllocsPerRun(3, run); a != 0 {
			t.Fatalf("trial %d: search allocated %.1f times per run", trial, a)
		}
		nodes += s.nodes
		if s.used != 0 || s.worst != 0 || len(s.trail) != 0 {
			t.Fatalf("trial %d: search left used=%b worst=%v trail=%d", trial, s.used, s.worst, len(s.trail))
		}
		for i, l := range s.lambda {
			if l >= 0 || s.dom[i] != uint64(1)<<uint(p.MaxLambda)-1 {
				t.Fatalf("trial %d: path %d left at colour %d, domain %b", trial, i, l, s.dom[i])
			}
		}
		for c, v := range s.perColor {
			if v != 0 || s.colCnt[c] != 0 {
				t.Fatalf("trial %d: colour %d left with max %v, %d paths", trial, c, v, s.colCnt[c])
			}
		}
		for node, m := range s.multi {
			if m != 0 {
				t.Fatalf("trial %d: node %d left with %d multi-ring colours", trial, node, m)
			}
		}
	}
	if nodes < 1000 {
		t.Fatalf("only %d search nodes across the trials: the check exercised too little", nodes)
	}
}
