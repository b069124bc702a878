package lp

import (
	"math/rand"
	"testing"
)

// BenchmarkSolveAssignment measures one-shot cold solves (solver build
// included) on n x n assignment LPs, the structure closest to the
// wavelength-assignment relaxations.
func BenchmarkSolveAssignment(b *testing.B) {
	for _, n := range []int{5, 10, 20} {
		n := n
		b.Run(map[int]string{5: "n5", 10: "n10", 20: "n20"}[n], func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := &Problem{NumVars: n * n, Objective: make([]float64, n*n)}
			for i := range p.Objective {
				p.Objective[i] = rng.Float64() * 10
			}
			for i := 0; i < n; i++ {
				row := map[int]float64{}
				col := map[int]float64{}
				for j := 0; j < n; j++ {
					row[i*n+j] = 1
					col[j*n+i] = 1
				}
				p.AddConstraint(EQ, 1, row)
				p.AddConstraint(EQ, 1, col)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := solveCold(NewSolver, p)
				if err != nil || s.Status != Optimal {
					b.Fatalf("%v %v", err, s.Status)
				}
			}
		})
	}
}

// BenchmarkSolveDense measures one-shot cold solves of random dense LE
// systems.
func BenchmarkSolveDense(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, m = 40, 60
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for i := range p.Objective {
		p.Objective[i] = rng.Float64()*2 - 1
	}
	for r := 0; r < m; r++ {
		terms := map[int]float64{}
		for j := 0; j < n; j++ {
			terms[j] = rng.Float64()
		}
		p.AddConstraint(LE, 5+rng.Float64()*10, terms)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveCold(NewSolver, p); err != nil {
			b.Fatal(err)
		}
	}
}
