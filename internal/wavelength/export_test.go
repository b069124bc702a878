package wavelength

// RefImprove exposes the reference hill climb to the external test
// package, which can build real benchmark instances through the pipeline.
var RefImprove = refImprove

// refImprove is the hill climb that Improve must reproduce bit for bit: the
// same passes, trial order and acceptance rule, with every trial recolour
// rescored over all paths by the evaluator and feasibility checked by
// scanning the path's neighbours.
func refImprove(infos []PathInfo, start *Assignment, w Weights) *Assignment {
	cur := start.Clone()
	cur.Normalize()
	adj := conflictAdj(infos)
	ev := newEvaluator(infos)
	curObj := ev.score(cur, w)

	feasible := func(i, c int) bool {
		for _, j := range adj[i] {
			if cur.Lambda[j] == c {
				return false
			}
		}
		return true
	}

	const maxPasses = 60
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := range infos {
			old := cur.Lambda[i]
			for c := 0; c <= cur.NumLambda; c++ {
				if c == old || !feasible(i, c) {
					continue
				}
				num := cur.NumLambda
				cur.Lambda[i] = c
				if c == num {
					cur.NumLambda = c + 1
				}
				cand := ev.score(cur, w)
				if cand.Value < curObj.Value-1e-9 {
					curObj = cand
					improved = true
					cur.Normalize()
					old = cur.Lambda[i]
				} else {
					cur.Lambda[i] = old
					cur.NumLambda = num
				}
			}
		}
		if cand, obj, ok := eliminateSplitters(infos, ev, cur, adj, w); ok && obj.Value < curObj.Value-1e-9 {
			cur = cand
			curObj = obj
			improved = true
		}
		if !improved {
			break
		}
	}
	cur.Normalize()
	return cur
}
