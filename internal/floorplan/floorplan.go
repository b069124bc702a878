// Package floorplan places application nodes on the optical layer when the
// input provides no (meaningful) coordinates. The SRing paper assumes
// placements are given — its clustering uses them — so a practical front
// end needs this step for netlists that arrive as bare task graphs.
//
// Placement is simulated annealing over grid slots, minimising the
// bandwidth-weighted rectilinear wirelength of the communication graph —
// the same objective that makes SRing's physical clustering effective.
// Deterministic for a fixed seed.
package floorplan

import (
	"fmt"
	"math"
	"math/rand"

	"sring/internal/geom"
	"sring/internal/netlist"
)

const (
	// pitchMM is the grid pitch (the benchmark default).
	pitchMM = 0.15
	// iterations is the number of proposed moves.
	iterations = 20000
)

// Options tunes the annealer.
type Options struct {
	// Seed drives the annealer.
	Seed int64
}

// Place returns a copy of the application with nodes placed on a grid.
// Message structure is preserved; only coordinates change. The input's
// coordinates are ignored entirely (they may be missing or degenerate).
func Place(app *netlist.Application, opt Options) (*netlist.Application, error) {
	if len(app.Nodes) < 2 {
		return nil, fmt.Errorf("floorplan: need at least 2 nodes, have %d", len(app.Nodes))
	}
	if len(app.Messages) == 0 {
		return nil, fmt.Errorf("floorplan: application has no messages")
	}
	n := len(app.Nodes)
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	slots := cols * rows
	slotPos := make([]geom.Point, slots)
	for s := range slotPos {
		slotPos[s] = geom.Pt(float64(s%cols)*pitchMM, float64(s/cols)*pitchMM)
	}

	// slotOf[node] and nodeAt[slot] (-1 = empty).
	rng := rand.New(rand.NewSource(opt.Seed))
	slotOf := make([]int, n)
	nodeAt := make([]int, slots)
	for s := range nodeAt {
		nodeAt[s] = -1
	}
	perm := rng.Perm(slots)
	for i := 0; i < n; i++ {
		slotOf[i] = perm[i]
		nodeAt[perm[i]] = i
	}

	weight := func(m netlist.Message) float64 {
		if m.Bandwidth > 0 {
			return m.Bandwidth
		}
		return 1
	}
	cost := func() float64 {
		var c float64
		for _, m := range app.Messages {
			c += weight(m) * slotPos[slotOf[m.Src]].Manhattan(slotPos[slotOf[m.Dst]])
		}
		return c
	}

	cur := cost()
	// Initial temperature: a healthy fraction of the initial cost per move.
	temp := math.Max(cur/float64(n), 1e-9)
	cooling := math.Pow(1e-3, 1/float64(iterations)) // reach temp/1000 at the end

	for it := 0; it < iterations; it++ {
		a := rng.Intn(n)
		s := rng.Intn(slots)
		if slotOf[a] == s {
			continue
		}
		b := nodeAt[s] // may be -1 (move into an empty slot)
		oldA := slotOf[a]

		apply := func() {
			nodeAt[oldA], nodeAt[s] = b, a
			slotOf[a] = s
			if b >= 0 {
				slotOf[b] = oldA
			}
		}
		apply()
		next := cost()
		delta := next - cur
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur = next
		} else {
			// Revert.
			nodeAt[s] = b
			nodeAt[oldA] = a
			slotOf[a] = oldA
			if b >= 0 {
				slotOf[b] = s
			}
		}
		temp *= cooling
	}

	placed := app.Clone()
	for i := range placed.Nodes {
		placed.Nodes[i].Pos = slotPos[slotOf[i]]
	}
	if err := placed.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: produced invalid placement: %w", err)
	}
	return placed, nil
}

// Wirelength returns the bandwidth-weighted rectilinear wirelength of an
// application's current placement — the annealer's objective, exposed for
// comparing placements.
func Wirelength(app *netlist.Application) float64 {
	var c float64
	for _, m := range app.Messages {
		w := m.Bandwidth
		if w <= 0 {
			w = 1
		}
		c += w * app.Pos(m.Src).Manhattan(app.Pos(m.Dst))
	}
	return c
}
