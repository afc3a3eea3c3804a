package geom

import (
	"testing"
	"testing/quick"
)

func TestRectEdges(t *testing.T) {
	r := Rect{X: 2, Y: 3, W: 4, H: 5}
	if r.X2() != 6 || r.Y2() != 8 {
		t.Fatalf("X2/Y2 = %d/%d, want 6/8", r.X2(), r.Y2())
	}
	if r.Area() != 20 {
		t.Fatalf("Area = %d, want 20", r.Area())
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported Empty")
	}
	if !(Rect{W: 0, H: 5}).Empty() || !(Rect{W: 5, H: -1}).Empty() {
		t.Fatal("degenerate rects should be Empty")
	}
}

func TestRectOverlaps(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 4, H: 2}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{X: 4, Y: 0, W: 2, H: 2}, false}, // abutting right
		{Rect{X: 3, Y: 0, W: 2, H: 2}, true},  // one-site overlap
		{Rect{X: 0, Y: 2, W: 4, H: 1}, false}, // abutting top
		{Rect{X: 0, Y: 1, W: 4, H: 1}, true},
		{Rect{X: -2, Y: -2, W: 10, H: 10}, true}, // containment
		{Rect{X: 10, Y: 10, W: 1, H: 1}, false},
	}
	for i, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: %v.Overlaps(%v) = %v, want %v", i, a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("case %d: overlap not symmetric", i)
		}
	}
}

func TestRectContains(t *testing.T) {
	outer := Rect{X: 0, Y: 0, W: 10, H: 10}
	if !outer.Contains(Rect{X: 0, Y: 0, W: 10, H: 10}) {
		t.Error("rect should contain itself")
	}
	if !outer.Contains(Rect{X: 3, Y: 4, W: 2, H: 2}) {
		t.Error("inner rect not contained")
	}
	if outer.Contains(Rect{X: 9, Y: 9, W: 2, H: 1}) {
		t.Error("overhanging rect reported contained")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 6, H: 4}
	b := Rect{X: 4, Y: 2, W: 6, H: 4}
	got := a.Intersect(b)
	want := Rect{X: 4, Y: 2, W: 2, H: 2}
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	u := a.Union(b)
	if (u != Rect{X: 0, Y: 0, W: 10, H: 6}) {
		t.Fatalf("Union = %v", u)
	}
	if !a.Union(Rect{}).Contains(a) || a.Union(Rect{}) != a {
		t.Fatal("union with empty should be identity")
	}
}

func TestSpanBasics(t *testing.T) {
	s := Span{Lo: 2, Hi: 7}
	if s.Len() != 5 || s.Empty() {
		t.Fatalf("bad span basics: %v", s)
	}
	if !s.ContainsInt(2) || s.ContainsInt(7) {
		t.Fatal("half-open containment wrong")
	}
	if !s.Overlaps(Span{Lo: 6, Hi: 9}) || s.Overlaps(Span{Lo: 7, Hi: 9}) {
		t.Fatal("span overlap wrong")
	}
	if got := s.Intersect(Span{Lo: 5, Hi: 10}); got != (Span{Lo: 5, Hi: 7}) {
		t.Fatalf("Intersect = %v", got)
	}
	if !s.Contains(Span{Lo: 3, Hi: 7}) || s.Contains(Span{Lo: 1, Hi: 3}) {
		t.Fatal("span containment wrong")
	}
}

func TestAbsClamp(t *testing.T) {
	if Abs(-3) != 3 || Abs(3) != 3 || Abs(0) != 0 {
		t.Fatal("Abs wrong")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-5, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp with inverted bounds should panic")
		}
	}()
	Clamp(0, 3, 1)
}

// Property: intersection is commutative, contained in both operands, and
// overlapping iff non-empty.
func TestRectIntersectProperties(t *testing.T) {
	norm := func(r Rect) Rect {
		r.X %= 50
		r.Y %= 50
		r.W = (r.W%20 + 20) % 20
		r.H = (r.H%20 + 20) % 20
		return r
	}
	f := func(a, b Rect) bool {
		a, b = norm(a), norm(b)
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if !i1.Empty() || !i2.Empty() {
			if i1 != i2 {
				return false
			}
			if !a.Contains(i1) || !b.Contains(i1) {
				return false
			}
		}
		return a.Overlaps(b) == !i1.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: union contains both operands and has area >= each.
func TestRectUnionProperties(t *testing.T) {
	f := func(ax, ay, bx, by int8, aw, ah, bw, bh uint8) bool {
		a := Rect{int(ax), int(ay), int(aw%30) + 1, int(ah%30) + 1}
		b := Rect{int(bx), int(by), int(bw%30) + 1, int(bh%30) + 1}
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
