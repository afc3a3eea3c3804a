package constraint

import (
	"math"
	"strings"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/verify"
)

func mustParse(t *testing.T, s string) *Set {
	t.Helper()
	set, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return set
}

func collect(d *design.Design, c interface {
	Check(*design.Design, func(verify.Violation) bool)
}) []verify.Violation {
	var out []verify.Violation
	c.Check(d, func(v verify.Violation) bool {
		out = append(out, v)
		return false
	})
	return out
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"fence:x0=10,y0=0,x1=40,y1=8,minh=2",
		"spacing:minw=3,gap=2",
		"tpl:sep=1",
		"fence:x0=-5,y0=1,x1=12,y1=3,minh=1;spacing:minw=1,gap=4;tpl:sep=2",
	} {
		set := mustParse(t, s)
		if got := set.Signature(); got != s {
			t.Errorf("Parse(%q).Signature() = %q", s, got)
		}
		again := mustParse(t, set.Signature())
		if again.Signature() != set.Signature() {
			t.Errorf("signature does not round-trip: %q -> %q", set.Signature(), again.Signature())
		}
	}
}

func TestParseDefaultsAndSpacing(t *testing.T) {
	set := mustParse(t, " fence:x0=0,y0=0,x1=10,y1=4 ;; tpl ")
	want := "fence:x0=0,y0=0,x1=10,y1=4,minh=2;tpl:sep=1"
	if got := set.Signature(); got != want {
		t.Errorf("defaults: got %q, want %q", got, want)
	}
	if set := mustParse(t, "spacing:gap=3"); set.Signature() != "spacing:minw=1,gap=3" {
		t.Errorf("spacing default minw: got %q", set.Signature())
	}
}

func TestParseEmpty(t *testing.T) {
	for _, s := range []string{"", "   ", " ; ; "} {
		set, err := Parse(s)
		if err != nil || set != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", s, set, err)
		}
		if !set.Empty() {
			t.Errorf("Parse(%q): nil set must report Empty", s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ in, wantSub string }{
		{"grid:z=1", "unknown plugin"},
		{"fence:x0=1,y0=0,x1=9", `"y1" is missing`},
		{"fence:x0=1,y0=0,x1=9,y1=2,zoo=3", `unknown parameter "zoo"`},
		{"spacing:gap=two", "not an integer"},
		{"spacing:gap", "malformed parameter"},
		{"spacing:gap=1,gap=2", "duplicate parameter"},
		{"spacing:gap=0", "must be >= 1"},
		{"spacing:gap=1,minw=0", "must be >= 1"},
		{"tpl:sep=0", "must be >= 1"},
		{"fence:x0=5,y0=0,x1=5,y1=2", "is empty"},
		{"fence:x0=0,y0=0,x1=5,y1=2,minh=0", "must be >= 1"},
	} {
		if _, err := Parse(tc.in); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q): err %v, want substring %q", tc.in, err, tc.wantSub)
		}
	}
}

// badPlugin lets the tests drive NewSet's validation paths.
type badPlugin struct {
	TPL
	classes int
	gap     int
}

func (b *badPlugin) NumClasses() int  { return b.classes }
func (b *badPlugin) Gap(_, _ int) int { return b.gap }

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(&badPlugin{classes: 0, gap: 0}); err == nil {
		t.Error("NumClasses=0 accepted")
	}
	if _, err := NewSet(&badPlugin{classes: 2, gap: -1}); err == nil {
		t.Error("negative gap accepted")
	}
	// 3^6 = 729 composite classes exceeds the uint8 budget.
	var six []Constraint
	for i := 0; i < 6; i++ {
		p, err := NewTPL(1)
		if err != nil {
			t.Fatal(err)
		}
		six = append(six, p)
	}
	if _, err := NewSet(six...); err == nil {
		t.Error("729-class composite accepted")
	}
	empty, err := NewSet()
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Empty() || empty.Len() != 0 || empty.Signature() != "" || empty.Checkers() != nil {
		t.Errorf("empty set is not neutral: %+v", empty)
	}
}

// TestNilSetNeutral checks that a nil set and an empty one are equally
// neutral: Config.Constraints documents them as equivalent, and the
// engine calls these methods without a guard.
func TestNilSetNeutral(t *testing.T) {
	empty, err := NewSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Set
	}{{"nil", nil}, {"empty", empty}} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			if !s.Empty() || s.Len() != 0 || s.Signature() != "" || s.MaxGap() != 0 || s.Checkers() != nil {
				t.Error("set basics not neutral")
			}
			cls := s.Class(&design.Master{}, 3, 1)
			if cls != 0 || s.Gap(cls, cls) != 0 {
				t.Errorf("class %d / gap %d, want 0 / 0", cls, s.Gap(cls, cls))
			}
			for y := 0; y < 4; y++ {
				if !s.AllowRow(cls, 2, y) {
					t.Errorf("set vetoed row %d", y)
				}
			}
			if lo, hi := s.NarrowX(cls, 3); lo != math.MinInt || hi != math.MaxInt {
				t.Errorf("set narrowed x to [%d, %d]", lo, hi)
			}
			if b := s.Bound(cls, 3, 17.5); b != 0 {
				t.Errorf("bound %v, want 0", b)
			}
			d := dtest.Flat(1, 10)
			dtest.Placed(d, 3, 1, 0, 0)
			dtest.Placed(d, 3, 1, 3, 0)
			s.Check(d, func(v verify.Violation) bool { t.Errorf("set emitted %v", v); return true })
		})
	}
}

func TestCompositeClassesAndGaps(t *testing.T) {
	fence, _ := NewFence(geom.Rect{X: 2, Y: 0, W: 20, H: 4}, 2)
	sp, _ := NewSpacing(4, 3)
	tpl, _ := NewTPL(2)
	set, err := NewSet(fence, sp, tpl)
	if err != nil {
		t.Fatal(err)
	}
	// 2 * 2 * 3 composite classes.
	d := dtest.Flat(4, 40)
	tall := &design.Master{Name: "tallwide", Width: 5, Height: 3}
	short := &design.Master{Name: "shortnarrow", Width: 1, Height: 1}
	ct, cs := set.Class(tall, 5, 3), set.Class(short, 1, 1)
	// tall: fence member (h>=2) and spacing-wide (w>=4) -> low bits 1|2.
	if ct&1 != 1 || (ct>>1)&1 != 1 {
		t.Errorf("tall composite class %d lacks fence/spacing membership bits", ct)
	}
	if cs&1 != 0 || (cs>>1)&1 != 0 {
		t.Errorf("short composite class %d has spurious membership", cs)
	}
	// Pairwise gap = max over plugins: two wide same-color cells need
	// max(spacing 3, tpl 2) = 3; wide different-color still 3; narrow
	// same-color only tpl's 2.
	if g := set.Gap(ct, ct); g != 3 {
		t.Errorf("wide same-color gap %d, want 3", g)
	}
	if set.MaxGap() != 3 {
		t.Errorf("MaxGap %d, want 3", set.MaxGap())
	}
	if g := set.Gap(cs, cs); g != 2 {
		t.Errorf("narrow same-color gap %d, want 2 (tpl)", g)
	}
	// AllowRow is the conjunction: the fence vetoes member rows outside
	// [0, 4); spacing and tpl never veto.
	if set.AllowRow(ct, 3, 2) { // y=2, h=3 -> rows [2,5) escape the rect rows [0,4)
		t.Error("fence member allowed to stick out the top")
	}
	if !set.AllowRow(ct, 3, 1) || !set.AllowRow(cs, 1, 3) {
		t.Error("legal rows vetoed")
	}
	// NarrowX is the intersection: only the fence narrows, members only.
	if lo, hi := set.NarrowX(ct, 5); lo != 2 || hi != 17 {
		t.Errorf("member NarrowX [%d, %d], want [2, 17]", lo, hi)
	}
	if lo, hi := set.NarrowX(cs, 1); lo != math.MinInt || hi != math.MaxInt {
		t.Errorf("non-member NarrowX [%d, %d], want open", lo, hi)
	}
	// Bound is the max of the terms; only the fence contributes.
	if b := set.Bound(ct, 5, 30); b != 13 {
		t.Errorf("member bound %v, want 13 (30 - 17)", b)
	}
	if b := set.Bound(ct, 5, -4); b != 6 {
		t.Errorf("member bound %v, want 6 (2 - (-4))", b)
	}
	if b := set.Bound(ct, 5, 10); b != 0 {
		t.Errorf("in-clamp bound %v, want 0", b)
	}
	if b := set.Bound(cs, 1, 100); b != 0 {
		t.Errorf("non-member bound %v, want 0", b)
	}
	_ = d
}

func TestFenceCheck(t *testing.T) {
	f, err := NewFence(geom.Rect{X: 5, Y: 1, W: 10, H: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := dtest.Flat(4, 40)
	inside := dtest.Placed(d, 3, 2, 6, 1)
	outside := dtest.Placed(d, 3, 2, 20, 1)  // member escaping in x
	sticking := dtest.Placed(d, 3, 2, 10, 2) // rows [2,4) escape rect rows [1,3)
	short := dtest.Placed(d, 3, 1, 30, 0)    // non-member: free
	fixedOut := dtest.Placed(d, 3, 2, 34, 1)
	d.Cell(fixedOut).Fixed = true // fixed cells are exempt

	vs := collect(d, f)
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	got := map[design.CellID]bool{}
	for _, v := range vs {
		if v.Kind != "fence-region" {
			t.Errorf("kind %q, want fence-region", v.Kind)
		}
		got[v.Cells[0]] = true
	}
	if !got[outside] || !got[sticking] || got[inside] || got[short] || got[fixedOut] {
		t.Errorf("violating cells %v; want exactly {%v, %v}", got, outside, sticking)
	}

	// The stop signal halts the scan after the first violation.
	n := 0
	f.Check(d, func(verify.Violation) bool { n++; return true })
	if n != 1 {
		t.Errorf("stop signal ignored: %d violations emitted", n)
	}
}

func TestSpacingCheck(t *testing.T) {
	s, err := NewSpacing(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := dtest.Flat(2, 60)
	a := dtest.Placed(d, 4, 1, 0, 0)
	b := dtest.Placed(d, 4, 1, 5, 0) // 1 site apart: violation
	dtest.Placed(d, 4, 1, 11, 0)     // 2 sites from b: legal
	dtest.Placed(d, 2, 1, 20, 0)     // narrow
	dtest.Placed(d, 4, 1, 22, 0)     // narrow-wide abutment: legal

	vs := collect(d, s)
	if len(vs) != 1 || vs[0].Kind != "spacing-gap" {
		t.Fatalf("got %v, want one spacing-gap violation", vs)
	}
	if vs[0].Cells[0] != a || vs[0].Cells[1] != b {
		t.Errorf("violation names cells %v, want [%v %v]", vs[0].Cells, a, b)
	}

	// A wall (fixed cell) between two close wide cells resets adjacency.
	wall := dtest.Placed(d, 1, 1, 34, 0)
	d.Cell(wall).Fixed = true
	dtest.Placed(d, 4, 1, 30, 0)
	dtest.Placed(d, 4, 1, 35, 0)
	if vs := collect(d, s); len(vs) != 1 {
		t.Errorf("fixed wall did not reset adjacency: %v", vs)
	}

	// A blockage acts as the same kind of wall.
	d2 := dtest.Flat(1, 30)
	d2.Blockages = append(d2.Blockages, geom.Rect{X: 5, Y: 0, W: 1, H: 1})
	dtest.Placed(d2, 4, 1, 1, 0)
	dtest.Placed(d2, 4, 1, 6, 0)
	if vs := collect(d2, s); len(vs) != 0 {
		t.Errorf("blockage did not reset adjacency: %v", vs)
	}
}

func TestTPLClassAndCheck(t *testing.T) {
	p, err := NewTPL(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClasses() != 3 {
		t.Fatalf("NumClasses = %d", p.NumClasses())
	}
	m := &design.Master{Name: "INVX1"}
	c1 := p.Class(m, 1, 1)
	if c1 != p.Class(m, 9, 9) {
		t.Error("color depends on dimensions, must be name-only")
	}
	if c1 < 0 || c1 >= 3 {
		t.Errorf("color %d out of range", c1)
	}
	if p.Gap(1, 1) != 2 || p.Gap(1, 2) != 0 {
		t.Error("gap table wrong: same color needs Sep, different colors 0")
	}

	// Same-master neighbors share a color: placing two copies 1 site
	// apart violates sep=2.
	d := dtest.Flat(1, 30)
	mi := d.AddMaster(design.Master{Name: "INVX1", Width: 3, Height: 1})
	a := d.AddCell("a", mi, 0, 0)
	b := d.AddCell("b", mi, 4, 0)
	d.Place(a, 0, 0)
	d.Place(b, 4, 0)
	vs := collect(d, p)
	if len(vs) != 1 || vs[0].Kind != "tpl-gap" {
		t.Fatalf("got %v, want one tpl-gap violation", vs)
	}
}

func TestSetCheckStops(t *testing.T) {
	sp, _ := NewSpacing(1, 5)
	tpl, _ := NewTPL(5)
	set, err := NewSet(sp, tpl)
	if err != nil {
		t.Fatal(err)
	}
	// Two adjacent same-master cells violate both plugins.
	d := dtest.Flat(1, 30)
	dtest.Placed(d, 3, 1, 0, 0)
	dtest.Placed(d, 3, 1, 4, 0)
	n := 0
	set.Check(d, func(verify.Violation) bool { n++; return true })
	if n != 1 {
		t.Errorf("Set.Check emitted %d violations after stop, want 1", n)
	}
	total := 0
	set.Check(d, func(verify.Violation) bool { total++; return false })
	if total != 2 {
		t.Errorf("Set.Check found %d violations, want 2 (one per plugin)", total)
	}
}

func TestFenceBoundAdmissible(t *testing.T) {
	f, err := NewFence(geom.Rect{X: 10, Y: 0, W: 8, H: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every x the clamp admits must realize at least the bound.
	for w := 1; w <= 8; w++ {
		lo, hi, narrowed := f.NarrowX(1, w)
		if !narrowed {
			t.Fatalf("member not narrowed")
		}
		for _, tx := range []float64{-3.5, 10, 13.25, 17.9, 40} {
			b := f.Bound(1, w, tx)
			for x := lo; x <= hi; x++ {
				if r := math.Abs(tx - float64(x)); b > r+1e-12 {
					t.Fatalf("w=%d tx=%v: bound %v exceeds realized %v at x=%d", w, tx, b, r, x)
				}
			}
		}
	}
	// Over-wide member: the clamp is empty and the bound soundly 0.
	if b := f.Bound(1, 9, 0); b != 0 {
		t.Errorf("empty-clamp bound %v, want 0", b)
	}
	// Non-members are never narrowed or bounded.
	if _, _, narrowed := f.NarrowX(0, 3); narrowed {
		t.Error("non-member narrowed")
	}
}
