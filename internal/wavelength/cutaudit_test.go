package wavelength_test

// Cut-validity property tests for the branch-and-cut engine. A cutting
// plane is only sound if it separates the fractional relaxation point from
// the integer hull without cutting off any integer-feasible solution; a bug
// in the GMI tableau arithmetic would instead silently
// prune the true optimum and the solver would still return "Optimal" — the
// worst failure mode an exact solver has. So every cut the engine applies
// on the real paper benchmarks is audited against both properties:
//
//  1. violated by the fractional point it was separated from (otherwise it
//     did no work and the efficacy selection is broken), and
//  2. satisfied by known integer-feasible points — the heuristic incumbent
//     lifted into the model space and the solver's own final solution.
//     Cuts are separated at the root only, so each one is valid in the
//     whole tree and every point must satisfy it.
//
// The solve runs with presolve disabled so the audited coordinates stay in
// BuildMILP's variable space and the hand-built incumbent vector can be
// checked against them directly.

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"sring/internal/lp"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/pipeline"
	"sring/internal/wavelength"

	_ "sring/internal/cluster"
)

// cutViolation returns how far x is on the wrong side of the cut:
// positive means violated, <= 0 satisfied.
func cutViolation(r milp.CutAuditRecord, x []float64) float64 {
	act := 0.0
	for v, a := range r.Coeffs {
		act += a * x[v]
	}
	switch r.Rel {
	case lp.LE:
		return act - r.RHS
	case lp.GE:
		return r.RHS - act
	default:
		return math.Inf(1) // equality cuts are never separated
	}
}

func TestCutValidityOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("separates cuts on every paper benchmark; skipped in -short")
	}
	const tol = 1e-6
	totalRecords := 0
	for _, app := range netlist.Benchmarks() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			infos, w, err := pipeline.PathInfos(t.Context(), app, "SRing", pipeline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			heur := wavelength.Improve(infos, wavelength.DSATUR(infos), w)
			numLambda := heur.NumLambda + 1
			// Mirror Assign's size gate (the package's maxBinaries
			// constant, 500 binaries): without presolve a dense
			// relaxation of the over-sized instances would eat the whole
			// budget in one LP and separate nothing worth auditing.
			if len(infos)*numLambda > 500 {
				t.Skipf("%d assignment binaries exceed the monolithic size gate", len(infos)*numLambda)
			}
			m, err := wavelength.BuildMILP(infos, numLambda, w)
			if err != nil {
				t.Fatal(err)
			}
			inc := m.IncumbentVector(infos, heur, w)

			var records []milp.CutAuditRecord
			milp.CutAudit = func(r milp.CutAuditRecord) { records = append(records, r) }
			defer func() { milp.CutAudit = nil }()

			res, err := milp.SolveContext(t.Context(), m.Prob, milp.Options{
				TimeLimit:       2 * time.Second,
				Parallelism:     1,
				BranchPriority:  m.Priority,
				Incumbent:       inc,
				DisablePresolve: true,
				CutRounds:       10,
			})
			if err != nil {
				t.Fatal(err)
			}
			milp.CutAudit = nil
			t.Logf("status=%v nodes=%d cuts audited=%d", res.Status, res.Nodes, len(records))
			totalRecords += len(records)

			// Known integer-feasible points to test each cut against.
			points := [][]float64{inc}
			if res.Status == milp.Optimal || res.Status == milp.Feasible {
				points = append(points, res.X)
			}
			for i, r := range records {
				if len(r.FracX) != m.Prob.LP.NumVars {
					t.Fatalf("cut %d: audit vector has wrong length", i)
				}
				if v := cutViolation(r, r.FracX); v <= 0 {
					t.Errorf("cut %d: not violated by its own fractional point (violation %g)", i, v)
				}
				for pi, x := range points {
					if v := cutViolation(r, x); v > tol {
						t.Errorf("cut %d cuts off integer-feasible point %d by %g:\n  %s",
							i, pi, v, describeCut(r))
					}
				}
			}
		})
	}
	if totalRecords == 0 {
		t.Error("no cuts were separated on any benchmark — the property test is vacuous")
	}
}

func describeCut(r milp.CutAuditRecord) string {
	return fmt.Sprintf("rel=%v rhs=%.9g terms=%d", r.Rel, r.RHS, len(r.Coeffs))
}

// Root cut rounds must be a pure search accelerant: on the apps whose
// exact model the solver proves with and without cuts, both solves decode
// to the same assignment with the same objective. The raw MILP objectives
// are not compared, because they may differ in the last bits (VOPD:
// 16.20749999999999 vs 16.2075).
func TestCutsKeepProvenAssignments(t *testing.T) {
	for _, name := range []string{"MWD", "VOPD", "8PM-24"} {
		t.Run(name, func(t *testing.T) {
			app, err := netlist.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			infos, w, err := pipeline.PathInfos(t.Context(), app, "SRing", pipeline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			heur, _, err := wavelength.Assign(infos, wavelength.Options{Weights: w})
			if err != nil {
				t.Fatal(err)
			}
			m, err := wavelength.BuildMILP(infos, heur.NumLambda+1, w)
			if err != nil {
				t.Fatal(err)
			}
			var got [2]*wavelength.Assignment
			var values [2]float64
			for i, rounds := range []int{0, -1} {
				res, err := milp.SolveContext(t.Context(), m.Prob, milp.Options{
					Parallelism:    1,
					BranchPriority: m.Priority,
					Incumbent:      m.IncumbentVector(infos, heur, w),
					CutRounds:      rounds,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != milp.Optimal {
					t.Fatalf("CutRounds %d: status %v, want optimal", rounds, res.Status)
				}
				if got[i], err = m.Decode(res.X); err != nil {
					t.Fatal(err)
				}
				values[i] = wavelength.Evaluate(infos, got[i], w).Value
				t.Logf("CutRounds %d: %d nodes, objective %.10f", rounds, res.Nodes, values[i])
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("cuts changed the proven assignment:\n  on:  %v\n  off: %v", got[0].Lambda, got[1].Lambda)
			}
			if values[0] != values[1] {
				t.Errorf("cuts changed the proven objective: %.17g vs %.17g", values[0], values[1])
			}
		})
	}
}
