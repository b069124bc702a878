// Package geom provides the rectilinear geometry primitives used by the
// SRing layout engine: points in millimetres on the optical layer, the
// Manhattan metric that governs waveguide lengths, axis-aligned segments,
// and crossing detection between waveguides.
//
// All coordinates are in millimetres. Waveguides are routed horizontally or
// vertically only (see paper Sec. III-A, footnote a), so every primitive here
// is rectilinear.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for floating-point comparisons of coordinates.
// Benchmark chips are a few millimetres across, so a nanometre-scale epsilon
// is far below any physically meaningful feature.
const Eps = 1e-9

// Point is a location on the optical layer, in millimetres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.3g, %.3g)", p.X, p.Y) }

// Manhattan returns the rectilinear (L1) distance between p and q.
// Waveguide segments are implemented horizontally or vertically, so the
// minimum waveguide length connecting two nodes is their Manhattan distance.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Segment is an axis-aligned waveguide segment between two points.
type Segment struct {
	A, B Point
}

// Horizontal reports whether the segment runs along the X axis.
// Zero-length segments report as horizontal.
func (s Segment) Horizontal() bool { return math.Abs(s.A.Y-s.B.Y) <= Eps }

// Vertical reports whether the segment runs along the Y axis.
func (s Segment) Vertical() bool {
	return math.Abs(s.A.X-s.B.X) <= Eps && !s.ZeroLength()
}

// ZeroLength reports whether the segment has (numerically) no extent.
func (s Segment) ZeroLength() bool { return s.Length() <= Eps }

// Length returns the segment length in millimetres.
func (s Segment) Length() float64 { return s.A.Manhattan(s.B) }

// String renders the segment as "A-B".
func (s Segment) String() string { return fmt.Sprintf("%v-%v", s.A, s.B) }

// interval1D returns the sorted extent of the segment along its running axis
// plus its fixed cross-axis coordinate.
func (s Segment) span() (lo, hi, fixed float64, horizontal bool) {
	if s.Horizontal() {
		lo, hi = math.Min(s.A.X, s.B.X), math.Max(s.A.X, s.B.X)
		return lo, hi, s.A.Y, true
	}
	lo, hi = math.Min(s.A.Y, s.B.Y), math.Max(s.A.Y, s.B.Y)
	return lo, hi, s.A.X, false
}

// Crosses reports whether two axis-aligned segments cross transversally,
// i.e. one horizontal and one vertical segment intersecting at an interior
// point of both. Endpoint touches (T-junctions at shared nodes) are NOT
// crossings: at a node the waveguides terminate at sender/receiver MRRs and
// no crossing structure is fabricated.
func (s Segment) Crosses(t Segment) bool {
	if s.ZeroLength() || t.ZeroLength() {
		return false
	}
	if s.Horizontal() == t.Horizontal() {
		return false // parallel segments never cross transversally
	}
	h, v := s, t
	if !s.Horizontal() {
		h, v = t, s
	}
	hy := h.A.Y
	vx := v.A.X
	hLo, hHi := math.Min(h.A.X, h.B.X), math.Max(h.A.X, h.B.X)
	vLo, vHi := math.Min(v.A.Y, v.B.Y), math.Max(v.A.Y, v.B.Y)
	// Strict interior intersection on both segments.
	return vx > hLo+Eps && vx < hHi-Eps && hy > vLo+Eps && hy < vHi-Eps
}

// Contains reports whether point p lies on the segment (inclusive of
// endpoints), within Eps.
func (s Segment) Contains(p Point) bool {
	lo, hi, fixed, horizontal := s.span()
	if horizontal {
		return math.Abs(p.Y-fixed) <= Eps && p.X >= lo-Eps && p.X <= hi+Eps
	}
	return math.Abs(p.X-fixed) <= Eps && p.Y >= lo-Eps && p.Y <= hi+Eps
}

// Polyline is a connected sequence of axis-aligned segments, e.g. the
// physical route of one waveguide between two nodes.
type Polyline struct {
	Points []Point
}

// Length returns the total rectilinear length of the polyline.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl.Points); i++ {
		total += pl.Points[i-1].Manhattan(pl.Points[i])
	}
	return total
}

// Bends returns the number of 90-degree direction changes along the polyline.
// Collinear intermediate points are not bends; zero-length hops are skipped.
func (pl Polyline) Bends() int {
	dirs := make([]byte, 0, len(pl.Points))
	for i := 1; i < len(pl.Points); i++ {
		a, b := pl.Points[i-1], pl.Points[i]
		switch {
		case a.Eq(b):
			continue
		case math.Abs(a.Y-b.Y) <= Eps:
			dirs = append(dirs, 'h')
		default:
			dirs = append(dirs, 'v')
		}
	}
	bends := 0
	for i := 1; i < len(dirs); i++ {
		if dirs[i] != dirs[i-1] {
			bends++
		}
	}
	return bends
}

// Segments decomposes the polyline into its non-degenerate axis-aligned
// segments.
func (pl Polyline) Segments() []Segment {
	segs := make([]Segment, 0, len(pl.Points))
	for i := 1; i < len(pl.Points); i++ {
		s := Segment{A: pl.Points[i-1], B: pl.Points[i]}
		if !s.ZeroLength() {
			segs = append(segs, s)
		}
	}
	return segs
}

// LRoute returns the L-shaped rectilinear route from a to b, bending at the
// corner (b.X, a.Y) ("horizontal first"). Straight routes contain no corner.
// The returned polyline always starts at a and ends at b and has length equal
// to the Manhattan distance.
func LRoute(a, b Point) Polyline {
	if math.Abs(a.X-b.X) <= Eps || math.Abs(a.Y-b.Y) <= Eps {
		return Polyline{Points: []Point{a, b}}
	}
	return Polyline{Points: []Point{a, Pt(b.X, a.Y), b}}
}

// LRouteVFirst returns the L-shaped route from a to b bending at (a.X, b.Y)
// ("vertical first").
func LRouteVFirst(a, b Point) Polyline {
	if math.Abs(a.X-b.X) <= Eps || math.Abs(a.Y-b.Y) <= Eps {
		return Polyline{Points: []Point{a, b}}
	}
	return Polyline{Points: []Point{a, Pt(a.X, b.Y), b}}
}

// BoundingBox returns the axis-aligned bounding box of the given points.
// It returns zeros for an empty input.
func BoundingBox(pts []Point) (min, max Point) {
	if len(pts) == 0 {
		return Point{}, Point{}
	}
	min, max = pts[0], pts[0]
	for _, p := range pts[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	return min, max
}

// CrossingCount returns the number of transversal crossings between two sets
// of segments. Crossings within the same set are not counted.
func CrossingCount(a, b []Segment) int {
	n := 0
	for _, s := range a {
		for _, t := range b {
			if s.Crosses(t) {
				n++
			}
		}
	}
	return n
}
