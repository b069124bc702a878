package ring

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sring/internal/geom"
	"sring/internal/netlist"
)

// square4 returns a 4-node app on the unit-square corners in ring order
// 0(0,0) 1(1,0) 2(1,1) 3(0,1).
func square4() *netlist.Application {
	return &netlist.Application{
		Name: "square4",
		Nodes: []netlist.Node{
			{ID: 0, Pos: geom.Pt(0, 0)},
			{ID: 1, Pos: geom.Pt(1, 0)},
			{ID: 2, Pos: geom.Pt(1, 1)},
			{ID: 3, Pos: geom.Pt(0, 1)},
		},
		Messages: []netlist.Message{{Src: 0, Dst: 2}},
	}
}

func TestValidate(t *testing.T) {
	ok := &Ring{ID: 0, Order: []netlist.NodeID{0, 1, 2}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid ring rejected: %v", err)
	}
	short := &Ring{ID: 1, Order: []netlist.NodeID{0}}
	if err := short.Validate(); err == nil {
		t.Error("1-node ring accepted")
	}
	dup := &Ring{ID: 2, Order: []netlist.NodeID{0, 1, 0}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestIndexContains(t *testing.T) {
	r := &Ring{Order: []netlist.NodeID{5, 7, 9}}
	if r.Index(7) != 1 || r.Index(5) != 0 {
		t.Error("Index wrong")
	}
	if r.Index(8) != -1 || r.Contains(8) {
		t.Error("missing node reported present")
	}
	if !r.Contains(9) {
		t.Error("present node reported missing")
	}
}

func TestSegmentLengthsAndPerimeter(t *testing.T) {
	app := square4()
	r := &Ring{Order: []netlist.NodeID{0, 1, 2, 3}}
	lens := r.SegmentLengths(app)
	for i, l := range lens {
		if math.Abs(l-1) > geom.Eps {
			t.Errorf("segment %d length = %v, want 1", i, l)
		}
	}
	if p := r.Perimeter(app); math.Abs(p-4) > geom.Eps {
		t.Errorf("Perimeter = %v, want 4", p)
	}
}

func TestArcDirectionality(t *testing.T) {
	r := &Ring{Order: []netlist.NodeID{0, 1, 2, 3}}
	arc, err := r.Arc(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(arc) != 2 || arc[0] != 0 || arc[1] != 1 {
		t.Errorf("Arc(0,2) = %v, want [0 1]", arc)
	}
	// Going the other way around the directed ring takes the long arc.
	arc, err = r.Arc(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(arc) != 2 || arc[0] != 2 || arc[1] != 3 {
		t.Errorf("Arc(2,0) = %v, want [2 3]", arc)
	}
	arc, err = r.Arc(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(arc) != 1 || arc[0] != 3 {
		t.Errorf("Arc(3,0) = %v, want [3]", arc)
	}
}

func TestArcErrors(t *testing.T) {
	r := &Ring{Order: []netlist.NodeID{0, 1, 2}}
	if _, err := r.Arc(0, 9); err == nil {
		t.Error("Arc to off-ring node accepted")
	}
	if _, err := r.Arc(1, 1); err == nil {
		t.Error("zero-length arc accepted")
	}
}

func TestPathLength(t *testing.T) {
	app := square4()
	r := &Ring{Order: []netlist.NodeID{0, 1, 2, 3}}
	l, err := r.PathLength(app, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-2) > geom.Eps {
		t.Errorf("PathLength(0,2) = %v, want 2", l)
	}
	l, _ = r.PathLength(app, 1, 0)
	if math.Abs(l-3) > geom.Eps {
		t.Errorf("PathLength(1,0) = %v, want 3 (directed)", l)
	}
}

func TestReversed(t *testing.T) {
	app := square4()
	r := &Ring{Order: []netlist.NodeID{0, 1, 2, 3}}
	rev := r.Reversed()
	want := []netlist.NodeID{3, 2, 1, 0}
	for i, id := range rev.Order {
		if id != want[i] {
			t.Fatalf("Reversed order = %v", rev.Order)
		}
	}
	// Path 1->0 is short on the reversed ring.
	l, err := rev.PathLength(app, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-1) > geom.Eps {
		t.Errorf("reversed PathLength(1,0) = %v, want 1", l)
	}
	// Original untouched.
	if r.Order[0] != 0 {
		t.Error("Reversed mutated the original")
	}
}

func TestReversedInvolution(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 2 + int(nRaw)%10
		r := &Ring{Order: make([]netlist.NodeID, n)}
		for i := range r.Order {
			r.Order[i] = netlist.NodeID(i)
		}
		rr := r.Reversed().Reversed()
		for i := range r.Order {
			if rr.Order[i] != r.Order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any ring and any ordered node pair, the forward arc and the
// complementary arc partition the ring's segments.
func TestArcPartitionProperty(t *testing.T) {
	f := func(nRaw, aRaw, bRaw uint8) bool {
		n := 3 + int(nRaw)%8
		a := int(aRaw) % n
		b := int(bRaw) % n
		if a == b {
			return true
		}
		r := &Ring{Order: make([]netlist.NodeID, n)}
		for i := range r.Order {
			r.Order[i] = netlist.NodeID(i)
		}
		fwd, err1 := r.Arc(netlist.NodeID(a), netlist.NodeID(b))
		bwd, err2 := r.Arc(netlist.NodeID(b), netlist.NodeID(a))
		if err1 != nil || err2 != nil {
			return false
		}
		if len(fwd)+len(bwd) != n {
			return false
		}
		seen := make(map[int]bool)
		for _, s := range append(append([]int{}, fwd...), bwd...) {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTwoNodeRing(t *testing.T) {
	app := &netlist.Application{
		Nodes: []netlist.Node{
			{ID: 0, Pos: geom.Pt(0, 0)},
			{ID: 1, Pos: geom.Pt(2, 1)},
		},
	}
	r := &Ring{Order: []netlist.NodeID{0, 1}}
	// Out-and-back loop: both directions have the same length (Fig. 5(c)).
	l01, _ := r.PathLength(app, 0, 1)
	l10, _ := r.PathLength(app, 1, 0)
	if math.Abs(l01-3) > geom.Eps || math.Abs(l10-3) > geom.Eps {
		t.Errorf("two-node ring path lengths = %v, %v, want 3, 3", l01, l10)
	}
	if math.Abs(r.Perimeter(app)-6) > geom.Eps {
		t.Errorf("two-node ring perimeter = %v, want 6", r.Perimeter(app))
	}
}

func TestRoute(t *testing.T) {
	app := square4()
	r := &Ring{ID: 7, Order: []netlist.NodeID{0, 1, 2, 3}}
	p, err := Route(app, r, netlist.Message{Src: 0, Dst: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.RingID != 7 || len(p.Segs) != 2 || p.NodesPassed != 1 {
		t.Errorf("Route = %+v", p)
	}
	if math.Abs(p.Length-2) > geom.Eps {
		t.Errorf("Route length = %v, want 2", p.Length)
	}
	if _, err := Route(app, r, netlist.Message{Src: 0, Dst: 9}); err == nil {
		t.Error("Route accepted off-ring destination")
	}
}

func TestConflicts(t *testing.T) {
	a := Path{RingID: 0, Segs: []int{0, 1}}
	b := Path{RingID: 0, Segs: []int{1, 2}}
	c := Path{RingID: 0, Segs: []int{2, 3}}
	d := Path{RingID: 1, Segs: []int{0, 1}}
	if !Conflicts(a, b) {
		t.Error("overlapping arcs on same ring should conflict")
	}
	if Conflicts(a, c) {
		t.Error("disjoint arcs should not conflict")
	}
	if Conflicts(a, d) {
		t.Error("paths on different rings should never conflict")
	}
}

func TestBuildConflictGraph(t *testing.T) {
	paths := []Path{
		{RingID: 0, Segs: []int{0, 1}},
		{RingID: 0, Segs: []int{1, 2}},
		{RingID: 0, Segs: []int{3}},
		{RingID: 1, Segs: []int{0, 1, 2}},
	}
	g := BuildConflictGraph(paths)
	if len(g.Adj[0]) != 1 || g.Adj[0][0] != 1 {
		t.Errorf("Adj[0] = %v, want [1]", g.Adj[0])
	}
}

// TestConflictGraphMatchesPairwise checks the segment-indexed
// BuildConflictGraph against the definition: Adj[i] lists, ascending, every
// j != i with Conflicts(paths[i], paths[j]), and is nil when there is none.
// The paths are seeded random arcs on rings of assorted sizes, plus
// arbitrary segment lists (repeated and out-of-order segments, empty
// paths, sparse ring IDs) that no real arc produces.
func TestConflictGraphMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		ringIDs := []int{0, 1, 2, 7}[:1+rng.Intn(4)]
		sizes := make(map[int]int)
		for _, id := range ringIDs {
			sizes[id] = 2 + rng.Intn(12)
		}
		paths := make([]Path, rng.Intn(60))
		for i := range paths {
			id := ringIDs[rng.Intn(len(ringIDs))]
			n := sizes[id]
			var segs []int
			if rng.Intn(5) == 0 {
				for k := rng.Intn(4); k > 0; k-- {
					segs = append(segs, rng.Intn(n))
				}
			} else {
				src := rng.Intn(n)
				for s, l := src, 1+rng.Intn(n-1); l > 0; s, l = (s+1)%n, l-1 {
					segs = append(segs, s)
				}
			}
			paths[i] = Path{RingID: id, Segs: segs}
		}
		want := make([][]int, len(paths))
		for i := range paths {
			for j := range paths {
				if j != i && Conflicts(paths[i], paths[j]) {
					want[i] = append(want[i], j)
				}
			}
		}
		if got := BuildConflictGraph(paths).Adj; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: adjacency\n got %v\nwant %v\npaths %v", trial, got, want, paths)
		}
	}
}

func TestKindString(t *testing.T) {
	if Intra.String() != "intra" || Inter.String() != "inter" || Base.String() != "base" {
		t.Error("Kind labels wrong")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown Kind label wrong")
	}
}

func TestRingString(t *testing.T) {
	r := &Ring{ID: 3, Kind: Inter, Order: []netlist.NodeID{2, 4}}
	if got := r.String(); got != "ring 3 (inter): 2 -> 4" {
		t.Errorf("String = %q", got)
	}
}
