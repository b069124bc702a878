package wavelength

import (
	"context"
	"fmt"
	"time"

	"sring/internal/milp"
	"sring/internal/obs"
	"sring/internal/wavelength/cpcheck"
)

// oracleH is the CP oracle's wall time per run, in the process registry.
var oracleH = obs.Default().Histogram("wavelength.oracle.ns")

// OracleCP names the constraint-propagation cross-oracle for
// Options.Oracle.
const OracleCP = "cp"

// CheckOracle rejects an Options.Oracle name other than empty (no oracle)
// and OracleCP, and an oracle without the exact stage (useMILP false): the
// oracle only runs after the MILP, so it would be silently ignored.
func CheckOracle(name string, useMILP bool) error {
	if name != "" && name != OracleCP {
		return fmt.Errorf("wavelength: unknown oracle %q (want %q or empty)", name, OracleCP)
	}
	if name != "" && !useMILP {
		return fmt.Errorf("wavelength: oracle %q runs only with the exact MILP assignment enabled", name)
	}
	return nil
}

// cpProblem translates the assignment instance into the oracle's terms.
// Both solvers see the same conflict adjacency and price splitters the same
// way, so their objectives are directly comparable.
func cpProblem(infos []PathInfo, adj [][]int, numLambda int, w Weights) cpcheck.Problem {
	p := cpcheck.Problem{
		Paths:     make([]cpcheck.Path, len(infos)),
		Adj:       adj,
		MaxLambda: numLambda,
		W: cpcheck.Weights{
			Alpha: w.Alpha, Beta: w.Beta, Gamma: w.Gamma,
			SplitterDB: w.SplitterStageDB,
		},
	}
	for i, info := range infos {
		p.Paths[i] = cpcheck.Path{
			Node:   int(info.SenderNode()),
			Ring:   info.SenderRing(),
			LossDB: info.LossDB,
		}
	}
	return p
}

// SolveCP runs the CP oracle on the instance over a numLambda-wavelength
// palette, seeded with the incumbent assignment (nil for none). It is the
// exported entry the cross-check tests drive directly.
func SolveCP(ctx context.Context, infos []PathInfo, numLambda int, w Weights, seed *Assignment, limit time.Duration) (cpcheck.Result, error) {
	return solveCP(ctx, infos, conflictAdj(infos), numLambda, w, seed, limit)
}

// solveCP is SolveCP over the conflict adjacency of infos.
func solveCP(ctx context.Context, infos []PathInfo, adj [][]int, numLambda int, w Weights, seed *Assignment, limit time.Duration) (cpcheck.Result, error) {
	if numLambda > cpcheck.MaxLambdaLimit {
		return cpcheck.Result{}, fmt.Errorf("wavelength: palette %d exceeds the CP oracle's %d-wavelength limit", numLambda, cpcheck.MaxLambdaLimit)
	}
	var seedLambda []int
	if seed != nil {
		seedLambda = seed.Lambda
	}
	var deadline time.Time
	if limit > 0 {
		deadline = time.Now().Add(limit)
	}
	return cpcheck.Solve(ctx, cpProblem(infos, adj, numLambda, w), seedLambda, deadline)
}

// runOracle is the -oracle=cp fallback inside AssignContext: when the MILP
// failed to prove optimality, an independent CP search gets the same time
// budget, seeded with the best assignment so far. A CP improvement replaces
// the incumbent; a CP proof of optimality (or a stronger CP bound) tightens
// the reported bound and gap.
func runOracle(ctx context.Context, infos []PathInfo, adj [][]int, best *Assignment, numLambda int, w Weights, opt Options, stats *Stats, sp *obs.Span) (*Assignment, error) {
	limit := opt.MILPTimeLimit
	if limit <= 0 {
		limit = milp.DefaultTimeLimit
	}
	osp := sp.StartSpan("wavelength.oracle")
	defer osp.End()
	osp.Count("wavelength.oracle.runs", 1)
	start := time.Now()
	res, err := solveCP(ctx, infos, adj, numLambda, w, best, limit)
	oracleH.RecordSince(start)
	osp.Count("wavelength.oracle.nodes", res.Nodes)
	if err != nil && ctx.Err() == nil {
		return best, err
	}
	stats.OracleRan = true
	stats.OracleExact = res.Exact
	stats.OracleNodes = res.Nodes
	stats.OracleBound = res.Bound
	osp.SetBool("exact", res.Exact)
	osp.SetInt("nodes", res.Nodes)
	osp.SetFloat("bound", res.Bound)
	if res.Exact {
		osp.Count("wavelength.oracle.exact", 1)
	}
	if ctx.Err() != nil {
		stats.Cancelled = true
	}
	if res.Lambda != nil {
		cand := &Assignment{Lambda: append([]int(nil), res.Lambda...), NumLambda: numLambda}
		cand.Normalize()
		if err := verify(adj, cand); err != nil {
			return best, fmt.Errorf("wavelength: CP oracle produced invalid assignment: %w", err)
		}
		if o := Evaluate(infos, cand, w); o.Value < stats.Final.Value-1e-9 {
			best = cand
			stats.Final = o
			osp.Count("wavelength.oracle.improved", 1)
		}
	}
	// The CP bound is valid over the same palette the MILP searched, so the
	// stronger of the two governs the reported gap.
	if stats.MILPRan && res.Bound > stats.MILPBound {
		stats.MILPBound = res.Bound
		if stats.Final.Value > 0 {
			gap := (stats.Final.Value - res.Bound) / stats.Final.Value
			if gap < 0 {
				gap = 0
			}
			if gap < stats.MILPGap {
				stats.MILPGap = gap
			}
		}
	}
	return best, nil
}
