package wavelength

// climbState prices single-path recolours of one normalised assignment
// without rescoring every path. It keeps:
//
//   - per (sender, λ, sender ring), the number of paths; per (sender, λ),
//     the number of rings carrying λ; per sender, the number of λs carried
//     on two or more rings (the sender needs a splitter iff that is
//     non-zero, the evaluator's rule);
//   - each path's il_s, the worst il_s, and the splitter count;
//   - per λ, the two largest positive il_s of its paths, top1 ≥ top2
//     (0 where there are fewer; equal when the maximum is shared).
//
// A recolour i: old → c that leaves its sender's splitter status alone
// leaves every il_s, the worst path and the splitter count unchanged; only
// il_old^max and il_c^max move, and the tops give both in O(1). trial then
// re-sums the per-λ maxima in λ index order with those two overridden:
// the same operands in the same order as the evaluator's sum, so the value
// is bit-identical. A recolour that flips a splitter changes il_s for all
// of the sender's paths; trial reports it and the caller rescores.
//
// The state is rebuilt, not updated, whenever the assignment changes: an
// accepted move renumbers the palette anyway.
type climbState struct {
	ev *evaluator
	w  Weights

	slot     []int // per path: index of its ring among its sender's rings
	slotBase []int // per sender: row of its first ring in ringPaths

	width     int     // NumLambda + 1 of the assignment the state describes
	ringPaths []int32 // (slotBase[sender]+slot)*width + λ: paths
	ringsAt   []int32 // sender*width + λ: rings with at least one path
	shared    []int32 // per sender: λs carried on two or more rings
	nSplit    int

	il    []float64 // per path il_s
	worst float64
	top1  []float64 // per λ: largest positive il_s, 0 if none
	top2  []float64 // per λ: second largest positive il_s, 0 if none
}

// newClimbState indexes the senders' rings of ev's path set.
func newClimbState(ev *evaluator, w Weights) *climbState {
	n, ns := len(ev.infos), len(ev.nodes)
	st := &climbState{
		ev:       ev,
		w:        w,
		slot:     make([]int, n),
		slotBase: make([]int, ns+1),
		shared:   make([]int32, ns),
		il:       make([]float64, n),
	}
	ringsOf := make([][]int, ns)
	for i, s := range ev.sender {
		r := ev.ring[i]
		k := 0
		for k < len(ringsOf[s]) && ringsOf[s][k] != r {
			k++
		}
		if k == len(ringsOf[s]) {
			ringsOf[s] = append(ringsOf[s], r)
		}
		st.slot[i] = k
	}
	for s, rs := range ringsOf {
		st.slotBase[s+1] = st.slotBase[s] + len(rs)
	}
	return st
}

// rebuild recomputes the state for a, which must be normalised.
func (st *climbState) rebuild(a *Assignment) {
	ev := st.ev
	width := a.NumLambda + 1
	st.width = width
	st.ringPaths = resize(st.ringPaths, st.slotBase[len(ev.nodes)]*width)
	st.ringsAt = resize(st.ringsAt, len(ev.nodes)*width)
	st.top1 = resize(st.top1, width)
	st.top2 = resize(st.top2, width)
	clear(st.shared)

	for i, s := range ev.sender {
		l := a.Lambda[i]
		k := (st.slotBase[s]+st.slot[i])*width + l
		st.ringPaths[k]++
		if st.ringPaths[k] > 1 {
			continue
		}
		st.ringsAt[s*width+l]++
		if st.ringsAt[s*width+l] == 2 {
			st.shared[s]++
		}
	}
	st.nSplit = 0
	for _, k := range st.shared {
		if k > 0 {
			st.nSplit++
		}
	}
	st.worst = 0
	for i, pi := range ev.infos {
		il := pi.LossDB
		if st.shared[ev.sender[i]] > 0 {
			il += st.w.SplitterStageDB
		}
		st.il[i] = il
		if il > st.worst {
			st.worst = il
		}
		switch l := a.Lambda[i]; {
		case il > st.top1[l]:
			st.top2[l], st.top1[l] = st.top1[l], il
		case il > st.top2[l]:
			st.top2[l] = il
		}
	}
}

// trial prices recolouring path i of a (the assignment the state was built
// for) from its colour to c, where c ≠ a.Lambda[i] and c ≤ a.NumLambda. It
// returns ok=false, and no objective, when the move flips the splitter
// status of path i's sender.
func (st *climbState) trial(a *Assignment, i, c int) (Objective, bool) {
	ev, width := st.ev, st.width
	s, old := ev.sender[i], a.Lambda[i]
	row := (st.slotBase[s] + st.slot[i]) * width
	shared := st.shared[s]
	if st.ringPaths[row+old] == 1 && st.ringsAt[s*width+old] == 2 {
		shared--
	}
	if st.ringPaths[row+c] == 0 && st.ringsAt[s*width+c] == 1 {
		shared++
	}
	if (shared > 0) != (st.shared[s] > 0) {
		return Objective{}, false
	}

	il := st.il[i]
	atOld := st.top1[old]
	if il == atOld {
		atOld = st.top2[old]
	}
	atC := st.top1[c]
	if il > atC {
		atC = il
	}
	n := a.NumLambda
	if c == n {
		n++
	}
	var sum float64
	used := 0
	for l, v := range st.top1[:n] {
		switch l {
		case old:
			v = atOld
		case c:
			v = atC
		}
		sum += v
		if v > 0 {
			used++
		}
	}
	return Objective{
		NumLambda:    used,
		WorstIL:      st.worst,
		SumPerLambda: sum,
		Splitters:    st.nSplit,
		Value:        st.w.value(used, st.worst, sum),
	}, true
}

// resize returns buf with length n and every element zero, reusing its
// storage when large enough.
func resize[T int32 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
