package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The reference refactorisation: the dense elimination and the full-rescan
// singleton ordering that orderBasisColumns and buildFactorInto replace.
// Both production routines promise bit-identical results, so these oracles
// are the specification they are property-tested against.

// oracleOrder computes the elimination order of the current basic columns
// by rescanning every basic column after each emitted singleton, the row
// singletons and the Markowitz kernel step by full scans as well.
func oracleOrder(k *ftKernel) (ordCols, ordPref []int32) {
	s := k.s
	m := s.m

	var basicCols []int32
	for j := 0; j < s.nCols; j++ {
		if s.inBasis[j] {
			basicCols = append(basicCols, int32(j))
		}
	}

	rcStart := make([]int32, m+1)
	for _, c := range basicCols {
		if int(c) >= s.nStruct {
			rcStart[int(c)-s.nStruct+1]++
		} else {
			for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
				rcStart[k.ccRow[t]+1]++
			}
		}
	}
	for r := 0; r < m; r++ {
		rcStart[r+1] += rcStart[r]
	}
	rcIdx := make([]int32, rcStart[m])
	fillPos := append([]int32(nil), rcStart[:m]...)
	for _, c := range basicCols {
		if int(c) >= s.nStruct {
			r := int(c) - s.nStruct
			rcIdx[fillPos[r]] = c
			fillPos[r]++
		} else {
			for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
				r := k.ccRow[t]
				rcIdx[fillPos[r]] = c
				fillPos[r]++
			}
		}
	}

	rowActive := make([]bool, m)
	rowCnt := make([]int32, m)
	colActive := make([]bool, s.nCols)
	colCnt := make([]int32, s.nCols)
	for r := 0; r < m; r++ {
		rowActive[r] = true
		rowCnt[r] = rcStart[r+1] - rcStart[r]
	}
	for _, c := range basicCols {
		colActive[c] = true
		if int(c) >= s.nStruct {
			colCnt[c] = 1
		} else {
			colCnt[c] = k.ccStart[c+1] - k.ccStart[c]
		}
	}

	deactivateCol := func(c int32) {
		colActive[c] = false
		if int(c) >= s.nStruct {
			r := c - int32(s.nStruct)
			if rowActive[r] {
				rowCnt[r]--
			}
			return
		}
		for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
			if r := k.ccRow[t]; rowActive[r] {
				rowCnt[r]--
			}
		}
	}
	deactivateRow := func(r int32) {
		rowActive[r] = false
		for t := rcStart[r]; t < rcStart[r+1]; t++ {
			if c := rcIdx[t]; colActive[c] {
				colCnt[c]--
			}
		}
	}
	activeRowOf := func(c int32) int32 {
		if int(c) >= s.nStruct {
			return c - int32(s.nStruct)
		}
		for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
			if r := k.ccRow[t]; rowActive[r] {
				return r
			}
		}
		return -1
	}
	activeColOf := func(r int32) int32 {
		for t := rcStart[r]; t < rcStart[r+1]; t++ {
			if c := rcIdx[t]; colActive[c] {
				return c
			}
		}
		return -1
	}
	emit := func(c, r int32) {
		ordCols = append(ordCols, c)
		ordPref = append(ordPref, r)
		deactivateCol(c)
		if r >= 0 {
			deactivateRow(r)
		}
	}

	for len(ordCols) < len(basicCols) {
		progress := false
		for _, c := range basicCols {
			if colActive[c] && colCnt[c] == 1 {
				if r := activeRowOf(c); r >= 0 {
					emit(c, r)
					progress = true
				}
			}
		}
		if progress {
			continue
		}
		for r := int32(0); int(r) < m; r++ {
			if rowActive[r] && rowCnt[r] == 1 {
				if c := activeColOf(r); c >= 0 {
					emit(c, r)
					progress = true
					break
				}
			}
		}
		if progress {
			continue
		}
		bestC, bestR := int32(-1), int32(-1)
		bestCost := int64(math.MaxInt64)
		for _, c := range basicCols {
			if !colActive[c] {
				continue
			}
			cc := int64(colCnt[c] - 1)
			if cc < 0 || cc >= bestCost {
				continue
			}
			if int(c) >= s.nStruct {
				if r := c - int32(s.nStruct); rowActive[r] {
					if cost := cc * int64(rowCnt[r]-1); cost < bestCost {
						bestC, bestR, bestCost = c, r, cost
					}
				}
				continue
			}
			for t := k.ccStart[c]; t < k.ccStart[c+1]; t++ {
				r := k.ccRow[t]
				if !rowActive[r] {
					continue
				}
				if cost := cc * int64(rowCnt[r]-1); cost < bestCost {
					bestC, bestR, bestCost = c, r, cost
				}
			}
		}
		if bestC >= 0 {
			emit(bestC, bestR)
			continue
		}
		best := int32(-1)
		for _, c := range basicCols {
			if colActive[c] {
				best = c
				break
			}
		}
		if best < 0 {
			break
		}
		emit(best, -1)
	}
	return ordCols, ordPref
}

// oracleBuild is the dense left-looking elimination: every column is
// scattered into a dense vector, swept through every earlier L-eta, and
// its pivot row and L/U entries are found by scans over all m rows.
func oracleBuild(k *ftKernel, dst *luFactor, forced bool, ordCols, ordPref []int32) bool {
	m := k.s.m
	dst.sig = k.sig
	dst.piv = dst.piv[:0]
	dst.inv = dst.inv[:0]
	dst.lStart = append(dst.lStart[:0], 0)
	dst.lIdx = dst.lIdx[:0]
	dst.lVal = dst.lVal[:0]
	dst.uStart = append(dst.uStart[:0], 0)
	dst.uRow = dst.uRow[:0]
	dst.uVal = dst.uVal[:0]
	dst.perm = make([]int32, m)

	pivoted := make([]bool, m)
	v := make([]float64, m)
	for t, c := range ordCols {
		k.scatter(v, int(c))
		for e := 0; e < len(dst.piv); e++ {
			f := v[dst.piv[e]]
			if f != 0 {
				for q := dst.lStart[e]; q < dst.lStart[e+1]; q++ {
					v[dst.lIdx[q]] -= dst.lVal[q] * f
				}
			}
		}
		r := -1
		if forced {
			r = int(k.rowOf[c])
			if math.Abs(v[r]) <= pivTol {
				return false
			}
		} else {
			if p := ordPref[t]; p >= 0 && !pivoted[p] && math.Abs(v[p]) > pivTol {
				r = int(p)
			} else {
				bestAbs := pivTol
				for i := 0; i < m; i++ {
					if pivoted[i] {
						continue
					}
					if abs := math.Abs(v[i]); abs > bestAbs {
						r, bestAbs = i, abs
					}
				}
				if r < 0 {
					return false
				}
			}
		}
		inv := 1 / v[r]
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			f := v[i]
			if f == 0 {
				continue
			}
			if pivoted[i] {
				dst.uRow = append(dst.uRow, int32(i))
				dst.uVal = append(dst.uVal, f)
			} else {
				dst.lIdx = append(dst.lIdx, int32(i))
				dst.lVal = append(dst.lVal, f*inv)
			}
		}
		dst.piv = append(dst.piv, int32(r))
		dst.inv = append(dst.inv, inv)
		dst.lStart = append(dst.lStart, int32(len(dst.lIdx)))
		dst.uStart = append(dst.uStart, int32(len(dst.uRow)))
		pivoted[r] = true
		dst.perm[r] = c
	}
	dst.fill = len(dst.lIdx) + len(dst.uRow) + len(dst.piv) - k.basisColsNnz()
	if dst.fill < 0 {
		dst.fill = 0
	}
	return true
}

// bitsEqual reports whether two float slices hold the same bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// factorDiff names the first luFactor field where got and want differ, or
// returns "" when the two are bit-identical.
func factorDiff(got, want *luFactor) string {
	switch {
	case got.sig != want.sig:
		return "sig"
	case got.fill != want.fill:
		return fmt.Sprintf("fill %d, want %d", got.fill, want.fill)
	case !slices.Equal(got.perm, want.perm):
		return "perm"
	case !slices.Equal(got.piv, want.piv):
		return "piv"
	case !bitsEqual(got.inv, want.inv):
		return "inv"
	case !slices.Equal(got.lStart, want.lStart):
		return "lStart"
	case !slices.Equal(got.lIdx, want.lIdx):
		return "lIdx"
	case !bitsEqual(got.lVal, want.lVal):
		return "lVal"
	case !slices.Equal(got.uStart, want.uStart):
		return "uStart"
	case !slices.Equal(got.uRow, want.uRow):
		return "uRow"
	case !bitsEqual(got.uVal, want.uVal):
		return "uVal"
	}
	return ""
}

// oracleCase is one random refactorisation input: a problem and a set of
// basic columns over it.
type oracleCase struct {
	name  string
	p     *Problem
	basis []int32
}

// randomOracleCase draws a sparse problem and a basis. The kind selects
// the basis mix and the coefficient pattern:
//
//	0: slack-heavy basis (the branch-and-bound common case)
//	1: structural-heavy basis
//	2: structurally singular — empty and duplicated structural columns
//	3: tiny coefficients, so preferred pivots fall below pivTol and the
//	   largest-|entry| fallback decides
//	4: coefficients in {±1, ±2}, so the fallback meets exact |entry| ties
func randomOracleCase(rng *rand.Rand, kind int) oracleCase {
	m := 4 + rng.Intn(40)
	n := 2 + rng.Intn(2*m)
	density := 0.05 + 0.3*rng.Float64()
	coeff := func() float64 {
		switch kind {
		case 3:
			if rng.Intn(3) == 0 {
				return (rng.Float64()*2 - 1) * 1e-10
			}
		case 4:
			return float64((1 + rng.Intn(2)) * (1 - 2*rng.Intn(2)))
		}
		return rng.Float64()*2 - 1
	}
	// Every column has a home row holding an O(1) entry, and the basis
	// takes its structural columns from distinct home rows, so outside
	// kind 2 the basis has a transversal and is rarely singular.
	home := make([]int, n)
	cols := make([]map[int]float64, n)
	for j := range cols {
		home[j] = rng.Intn(m)
		cols[j] = map[int]float64{}
		if kind == 2 && rng.Intn(6) == 0 {
			continue // an empty column
		}
		if kind == 2 && j > 0 && rng.Intn(5) == 0 {
			for r, v := range cols[rng.Intn(j)] {
				cols[j][r] = v // a duplicate of an earlier column
			}
			continue
		}
		for r := 0; r < m; r++ {
			if rng.Float64() < density {
				cols[j][r] = coeff()
			}
		}
		cols[j][home[j]] = float64(1 + rng.Intn(2))
	}
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for r := 0; r < m; r++ {
		terms := map[int]float64{}
		for j := range cols {
			if v, ok := cols[j][r]; ok {
				terms[j] = v
			}
		}
		p.AddConstraint(LE, 1, terms)
	}

	structShare := 0.15
	if kind != 0 {
		structShare = 0.5 + 0.5*rng.Float64()
	}
	nStructBasic := int(structShare * float64(m))
	var basis []int32
	covered := make([]bool, m)
	for _, j := range rng.Perm(n) {
		if len(basis) == nStructBasic {
			break
		}
		if !covered[home[j]] {
			covered[home[j]] = true
			basis = append(basis, int32(j))
		}
	}
	for r := 0; r < m; r++ {
		if !covered[r] {
			basis = append(basis, int32(n+r))
		}
	}
	rng.Shuffle(len(basis), func(a, b int) { basis[a], basis[b] = basis[b], basis[a] })
	return oracleCase{name: fmt.Sprintf("kind%d m%d n%d", kind, m, n), p: p, basis: basis}
}

// loadBasis makes basis the kernel's current basis, row r holding
// basis[r], as the pinned mid-solve rebuild reads it.
func loadBasis(k *ftKernel, basis []int32) {
	s := k.s
	for j := range s.inBasis {
		s.inBasis[j] = false
	}
	for r, c := range basis {
		s.basis[r] = c
		s.inBasis[c] = true
		k.rowOf[c] = int32(r)
	}
}

// checkRefactorAgainstOracle orders and factorises the kernel's current
// basis with the production routines and with the oracles, free and
// pinned, and reports the first disagreement. It returns whether the free
// build succeeded and whether the pinned one did.
func checkRefactorAgainstOracle(t *testing.T, name string, k *ftKernel) (freeOK, pinnedOK bool) {
	t.Helper()
	k.orderBasisColumns()
	wantCols, wantPref := oracleOrder(k)
	if !slices.Equal(k.ordCols, wantCols) || !slices.Equal(k.ordPref, wantPref) {
		t.Fatalf("%s: order\n got cols %v pref %v\nwant cols %v pref %v",
			name, k.ordCols, k.ordPref, wantCols, wantPref)
	}
	for _, forced := range []bool{false, true} {
		got, want := &luFactor{}, &luFactor{}
		ok := k.buildFactorInto(got, forced)
		wantOK := oracleBuild(k, want, forced, wantCols, wantPref)
		if ok != wantOK {
			t.Fatalf("%s forced=%v: build ok=%v, oracle ok=%v", name, forced, ok, wantOK)
		}
		if ok {
			if d := factorDiff(got, want); d != "" {
				t.Fatalf("%s forced=%v: factor differs from the oracle in %s", name, forced, d)
			}
		}
		if forced {
			pinnedOK = ok
		} else {
			freeOK = ok
		}
	}
	return freeOK, pinnedOK
}

// TestFactorOracleProperty holds the sparse refactorisation to the dense
// oracle on seeded random bases: equal ok flags, bit-equal factors and
// identical elimination orders, for free and pinned builds. Pinned builds
// run twice per basis: over a random row assignment (mostly the abort
// path) and over the free build's own assignment (which must succeed).
func TestFactorOracleProperty(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(15))
	var freeOK, freeSingular, pinnedOK, pinnedAbort int
	for trial := 0; trial < trials; trial++ {
		kind := trial % 5
		c := randomOracleCase(rng, kind)
		name := fmt.Sprintf("trial %d (%s)", trial, c.name)
		s, err := NewSolver(c.p)
		if err != nil {
			t.Fatal(err)
		}
		k := s.k.(*ftKernel)
		loadBasis(k, c.basis)
		free, pinned := checkRefactorAgainstOracle(t, name, k)
		if pinned {
			pinnedOK++
		} else {
			pinnedAbort++
		}
		if !free {
			freeSingular++
			continue
		}
		freeOK++
		// Pin the rows the free build chose: the pinned rebuild must then
		// reproduce it.
		f := &luFactor{}
		if !k.buildFactorInto(f, false) {
			t.Fatalf("%s: free build not repeatable", name)
		}
		loadBasis(k, f.perm)
		if _, pinned := checkRefactorAgainstOracle(t, name+" pinned to its own rows", k); !pinned {
			t.Fatalf("%s: pinned rebuild over the free build's rows aborted", name)
		} else {
			pinnedOK++
		}
	}
	if freeOK == 0 || freeSingular == 0 || pinnedOK == 0 || pinnedAbort == 0 {
		t.Errorf("coverage gap: free ok %d, free singular %d, pinned ok %d, pinned abort %d",
			freeOK, freeSingular, pinnedOK, pinnedAbort)
	}
	t.Logf("free ok %d, free singular %d, pinned ok %d, pinned abort %d", freeOK, freeSingular, pinnedOK, pinnedAbort)
}

// TestFactorOracleSolvedBases runs the oracle comparison on the bases a
// real solve ends at, where the kernel block of the ordering is not random
// noise but the structure the simplex converged to.
func TestFactorOracleSolvedBases(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		var p *Problem
		var lo, hi []float64
		if trial%2 == 0 {
			p, lo, hi = degenerateProblem(rng)
		} else {
			p, lo, hi = randomBoundedProblem(rng)
		}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol, err := s.SolveBounded(lo, hi, time.Time{}); err != nil || sol.Status != Optimal {
			continue
		}
		k := s.k.(*ftKernel)
		loadBasis(k, append([]int32(nil), s.basis...))
		checkRefactorAgainstOracle(t, fmt.Sprintf("trial %d", trial), k)
		checked++
	}
	if checked == 0 {
		t.Fatal("no solve reached an optimal basis")
	}
}

// TestMidRefactorZeroAlloc pins a warmed mid-solve refactorisation —
// ordering, pinned build, install and the accuracy check — to zero
// allocations.
func TestMidRefactorZeroAlloc(t *testing.T) {
	p, lo, hi := denseRandomLP(5, 30, 40)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol, err := s.SolveBounded(lo, hi, time.Time{}); err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol)
	}
	k := s.k.(*ftKernel)
	for i := 0; i < 4; i++ { // warm both mid-solve factor slots
		if !k.midRefactor() {
			t.Fatal("midRefactor failed")
		}
	}
	if n := testing.AllocsPerRun(20, func() { k.midRefactor() }); n != 0 {
		t.Errorf("warmed midRefactor allocates %v times, want 0", n)
	}
}
