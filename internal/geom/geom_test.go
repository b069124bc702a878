package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestManhattan(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 7},
		{Pt(-1, -1), Pt(1, 1), 4},
		{Pt(2.5, 0), Pt(0, 0), 2.5},
	}
	for _, c := range cases {
		if got := c.a.Manhattan(c.b); math.Abs(got-c.want) > Eps {
			t.Errorf("Manhattan(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// clampCoord maps an arbitrary generated float into the physically
// meaningful coordinate range (a few hundred mm) so the quick properties do
// not trip on overflow at 1e308 scales.
func clampCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 500)
}

func TestManhattanProperties(t *testing.T) {
	// Symmetry.
	sym := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by))
		return math.Abs(a.Manhattan(b)-b.Manhattan(a)) <= Eps
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Errorf("Manhattan not symmetric: %v", err)
	}
	// Triangle inequality.
	tri := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		b := Pt(clampCoord(bx), clampCoord(by))
		c := Pt(clampCoord(cx), clampCoord(cy))
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)+Eps
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Errorf("Manhattan violates triangle inequality: %v", err)
	}
	// Non-negativity and identity.
	nonneg := func(ax, ay float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		return a.Manhattan(a) == 0
	}
	if err := quick.Check(nonneg, nil); err != nil {
		t.Errorf("Manhattan(a,a) != 0: %v", err)
	}
}

func TestSegmentOrientation(t *testing.T) {
	h := Segment{Pt(0, 1), Pt(5, 1)}
	v := Segment{Pt(2, 0), Pt(2, 3)}
	z := Segment{Pt(1, 1), Pt(1, 1)}
	if !h.Horizontal() || h.Vertical() {
		t.Error("h should be horizontal only")
	}
	if v.Horizontal() || !v.Vertical() {
		t.Error("v should be vertical only")
	}
	if !z.ZeroLength() {
		t.Error("z should be zero length")
	}
	if z.Vertical() {
		t.Error("zero-length segment must not report vertical")
	}
}

func TestCrosses(t *testing.T) {
	h := Segment{Pt(0, 1), Pt(4, 1)}
	cases := []struct {
		name string
		v    Segment
		want bool
	}{
		{"proper crossing", Segment{Pt(2, 0), Pt(2, 3)}, true},
		{"touches endpoint of h", Segment{Pt(0, 0), Pt(0, 3)}, false},
		{"T-junction on h", Segment{Pt(2, 1), Pt(2, 3)}, false},
		{"misses entirely", Segment{Pt(6, 0), Pt(6, 3)}, false},
		{"v below h", Segment{Pt(2, -2), Pt(2, 0.5)}, false},
		{"parallel horizontal", Segment{Pt(0, 2), Pt(4, 2)}, false},
	}
	for _, c := range cases {
		if got := h.Crosses(c.v); got != c.want {
			t.Errorf("%s: Crosses = %v, want %v", c.name, got, c.want)
		}
		if got := c.v.Crosses(h); got != c.want {
			t.Errorf("%s (swapped): Crosses = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSegmentContains(t *testing.T) {
	s := Segment{Pt(0, 1), Pt(4, 1)}
	if !s.Contains(Pt(2, 1)) {
		t.Error("interior point not contained")
	}
	if !s.Contains(Pt(0, 1)) || !s.Contains(Pt(4, 1)) {
		t.Error("endpoints not contained")
	}
	if s.Contains(Pt(2, 1.5)) {
		t.Error("off-track point contained")
	}
	if s.Contains(Pt(5, 1)) {
		t.Error("point beyond end contained")
	}
}

func TestPolylineLengthAndBends(t *testing.T) {
	pl := Polyline{Points: []Point{Pt(0, 0), Pt(2, 0), Pt(2, 3), Pt(5, 3)}}
	if got, want := pl.Length(), 8.0; math.Abs(got-want) > Eps {
		t.Errorf("Length = %v, want %v", got, want)
	}
	if got, want := pl.Bends(), 2; got != want {
		t.Errorf("Bends = %v, want %v", got, want)
	}
	// Collinear intermediate points add no bends.
	straight := Polyline{Points: []Point{Pt(0, 0), Pt(1, 0), Pt(3, 0)}}
	if got := straight.Bends(); got != 0 {
		t.Errorf("straight polyline Bends = %v, want 0", got)
	}
	// Repeated point is skipped.
	dup := Polyline{Points: []Point{Pt(0, 0), Pt(1, 0), Pt(1, 0), Pt(1, 2)}}
	if got := dup.Bends(); got != 1 {
		t.Errorf("dup polyline Bends = %v, want 1", got)
	}
}

func TestPolylineSegments(t *testing.T) {
	pl := Polyline{Points: []Point{Pt(0, 0), Pt(2, 0), Pt(2, 0), Pt(2, 3)}}
	segs := pl.Segments()
	if len(segs) != 2 {
		t.Fatalf("Segments len = %d, want 2", len(segs))
	}
	if !segs[0].Horizontal() || !segs[1].Vertical() {
		t.Error("segment orientations wrong")
	}
}

func TestLRoute(t *testing.T) {
	a, b := Pt(0, 0), Pt(3, 2)
	pl := LRoute(a, b)
	if got, want := pl.Length(), a.Manhattan(b); math.Abs(got-want) > Eps {
		t.Errorf("LRoute length = %v, want %v", got, want)
	}
	if got := pl.Bends(); got != 1 {
		t.Errorf("LRoute bends = %v, want 1", got)
	}
	if !pl.Points[0].Eq(a) || !pl.Points[len(pl.Points)-1].Eq(b) {
		t.Error("LRoute endpoints wrong")
	}
	if !pl.Points[1].Eq(Pt(3, 0)) {
		t.Errorf("LRoute corner = %v, want (3,0)", pl.Points[1])
	}
	vf := LRouteVFirst(a, b)
	if !vf.Points[1].Eq(Pt(0, 2)) {
		t.Errorf("LRouteVFirst corner = %v, want (0,2)", vf.Points[1])
	}
	// Aligned points produce straight routes.
	if got := LRoute(Pt(0, 0), Pt(0, 5)); len(got.Points) != 2 {
		t.Error("aligned LRoute should be straight")
	}
}

func TestLRouteProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		b := Pt(clampCoord(bx), clampCoord(by))
		pl := LRoute(a, b)
		// Route length always equals Manhattan distance.
		return math.Abs(pl.Length()-a.Manhattan(b)) <= 1e-6
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("LRoute length != Manhattan: %v", err)
	}
}

func TestBoundingBox(t *testing.T) {
	min, max := BoundingBox([]Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)})
	if !min.Eq(Pt(-2, -1)) || !max.Eq(Pt(4, 5)) {
		t.Errorf("BoundingBox = %v %v", min, max)
	}
	min, max = BoundingBox(nil)
	if !min.Eq(Pt(0, 0)) || !max.Eq(Pt(0, 0)) {
		t.Errorf("empty BoundingBox = %v %v, want zeros", min, max)
	}
}

func TestCrossingCount(t *testing.T) {
	a := []Segment{{Pt(0, 1), Pt(4, 1)}, {Pt(0, 2), Pt(4, 2)}}
	b := []Segment{{Pt(2, 0), Pt(2, 3)}, {Pt(3, 0), Pt(3, 1.5)}}
	// Seg b0 crosses both of a; b1 crosses a[0] only (ends at 1.5 < 2).
	if got := CrossingCount(a, b); got != 3 {
		t.Errorf("CrossingCount = %d, want 3", got)
	}
}

func TestPointEqAndAdd(t *testing.T) {
	if !Pt(1, 2).Add(0.5, -1).Eq(Pt(1.5, 1)) {
		t.Error("Add/Eq mismatch")
	}
	if Pt(0, 0).Eq(Pt(0, 1e-6)) {
		t.Error("points 1e-6 apart must not be equal")
	}
	if !Pt(0, 0).Eq(Pt(0, 1e-12)) {
		t.Error("points 1e-12 apart should be equal")
	}
}
