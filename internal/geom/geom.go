// Package geom provides the geometric primitives used throughout the
// legalizer: integer points, rectangles and half-open intervals measured in
// placement-site units (see §2.1.1 of the paper), plus conversions to
// database units (DBU) for displacement and wirelength reporting.
//
// Horizontal quantities are measured in multiples of the site width and
// vertical quantities in multiples of the site height (one row). All
// rectangles and intervals are half-open: [Lo, Hi).
package geom

import "fmt"

// Point is a location in site units. X counts site widths, Y counts rows.
type Point struct {
	X, Y int
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle in site units, half-open on both axes:
// it covers x ∈ [X, X+W) and y ∈ [Y, Y+H).
type Rect struct {
	X, Y, W, H int
}

// X2 returns the exclusive right edge.
func (r Rect) X2() int { return r.X + r.W }

// Y2 returns the exclusive top edge.
func (r Rect) Y2() int { return r.Y + r.H }

// Area returns the area of r in site-width × site-height units.
func (r Rect) Area() int64 { return int64(r.W) * int64(r.H) }

// Empty reports whether r covers no sites.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Overlaps reports whether r and s share at least one site. Empty
// rectangles overlap nothing.
func (r Rect) Overlaps(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.X < s.X2() && s.X < r.X2() && r.Y < s.Y2() && s.Y < r.Y2()
}

// Contains reports whether s lies completely inside r.
func (r Rect) Contains(s Rect) bool {
	return s.X >= r.X && s.X2() <= r.X2() && s.Y >= r.Y && s.Y2() <= r.Y2()
}

// Intersect returns the overlap of r and s. The result may be Empty.
func (r Rect) Intersect(s Rect) Rect {
	x := max(r.X, s.X)
	y := max(r.Y, s.Y)
	x2 := min(r.X2(), s.X2())
	y2 := min(r.Y2(), s.Y2())
	return Rect{X: x, Y: y, W: x2 - x, H: y2 - y}
}

// Union returns the smallest rectangle covering both r and s. Empty inputs
// are ignored; the union of two empty rectangles is the zero Rect.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	x := min(r.X, s.X)
	y := min(r.Y, s.Y)
	x2 := max(r.X2(), s.X2())
	y2 := max(r.Y2(), s.Y2())
	return Rect{X: x, Y: y, W: x2 - x, H: y2 - y}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X, r.X2(), r.Y, r.Y2())
}

// Span is a half-open 1-D interval [Lo, Hi) in site units.
type Span struct {
	Lo, Hi int
}

// Len returns the length of s; negative if the span is inverted.
func (s Span) Len() int { return s.Hi - s.Lo }

// Empty reports whether s covers no sites.
func (s Span) Empty() bool { return s.Hi <= s.Lo }

// Overlaps reports whether s and t share at least one site. Empty spans
// overlap nothing.
func (s Span) Overlaps(t Span) bool {
	if s.Empty() || t.Empty() {
		return false
	}
	return s.Lo < t.Hi && t.Lo < s.Hi
}

// Contains reports whether t lies completely inside s.
func (s Span) Contains(t Span) bool { return t.Lo >= s.Lo && t.Hi <= s.Hi }

// ContainsInt reports whether x ∈ [Lo, Hi).
func (s Span) ContainsInt(x int) bool { return x >= s.Lo && x < s.Hi }

// Intersect returns the overlap of s and t (possibly Empty).
func (s Span) Intersect(t Span) Span {
	return Span{Lo: max(s.Lo, t.Lo), Hi: min(s.Hi, t.Hi)}
}

func (s Span) String() string { return fmt.Sprintf("[%d,%d)", s.Lo, s.Hi) }

// Abs returns |v|.
func Abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Clamp restricts v to [lo, hi]. It panics if lo > hi.
func Clamp(v, lo, hi int) int {
	if lo > hi {
		panic(fmt.Sprintf("geom: Clamp with lo %d > hi %d", lo, hi))
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
