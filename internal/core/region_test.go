package core

import (
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/segment"
)

// buildGrid inserts all placed movable cells of d into a fresh grid.
func buildGrid(t testing.TB, d *design.Design) *segment.Grid {
	t.Helper()
	g := segment.Build(d)
	if err := g.RebuildOccupancy(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExtractRegionEmptyDesign(t *testing.T) {
	d := dtest.Flat(10, 200)
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 50, Y: 2, W: 40, H: 5})
	if len(r.Segs) != 5 {
		t.Fatalf("got %d rows, want 5", len(r.Segs))
	}
	for i, ls := range r.Segs {
		if !ls.Valid || ls.Span != (geom.Span{Lo: 50, Hi: 90}) {
			t.Errorf("row %d: %+v", i, ls)
		}
		if ls.Row != 2+i {
			t.Errorf("row %d absolute index = %d", i, ls.Row)
		}
	}
	if r.NumLocalCells() != 0 {
		t.Fatal("empty design should have no local cells")
	}
}

func TestExtractRegionClipsWindow(t *testing.T) {
	d := dtest.Flat(4, 100)
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: -20, Y: -2, W: 60, H: 10})
	if len(r.Segs) != 4 {
		t.Fatalf("got %d rows, want 4 (clipped)", len(r.Segs))
	}
	for _, ls := range r.Segs {
		if !ls.Valid || ls.Span != (geom.Span{Lo: 0, Hi: 40}) {
			t.Errorf("row %d span = %v", ls.Row, ls.Span)
		}
	}
}

func TestExtractRegionNonLocalSplit(t *testing.T) {
	d := dtest.Flat(3, 100)
	// A wide cell sticking out of the window splits row 1.
	big := dtest.Placed(d, 30, 1, 40, 1)
	_ = big
	inside := dtest.Placed(d, 4, 1, 60, 0) // local, row 0
	g := buildGrid(t, d)
	// Window x ∈ [30, 90): cell big ∈ [40,70) is inside x-wise but we make
	// it non-local by cutting it with the window left edge below.
	r := ExtractRegion(g, geom.Rect{X: 45, Y: 0, W: 45, H: 3})
	// big spans [40,70): not contained in window ([45,90)) → non-local.
	// Row 1 candidates: [70, 90) only (the left piece [45,40) is empty).
	ls := r.Segs[1]
	if !ls.Valid || ls.Span != (geom.Span{Lo: 70, Hi: 90}) {
		t.Fatalf("row 1 local segment = %+v", ls)
	}
	// Row 0 keeps the full window span and contains the local cell.
	if r.Segs[0].Span != (geom.Span{Lo: 45, Hi: 90}) {
		t.Fatalf("row 0 span = %v", r.Segs[0].Span)
	}
	if cells := r.RowCells(0); len(cells) != 1 || cells[0] != inside {
		t.Fatalf("row 0 cells = %v", cells)
	}
}

func TestExtractRegionChoosesClosestToCenter(t *testing.T) {
	d := dtest.Flat(1, 200)
	// Non-local tall obstacle isn't possible on 1 row; use a fixed cell.
	obst := dtest.Placed(d, 10, 1, 80, 0)
	d.Cell(obst).Fixed = true
	g := buildGrid(t, d) // fixed cell splits the row into segments
	// Window [40, 140): pieces [40,80) and [90,140); center = 90.
	r := ExtractRegion(g, geom.Rect{X: 40, Y: 0, W: 100, H: 1})
	if !r.Segs[0].Valid || r.Segs[0].Span != (geom.Span{Lo: 90, Hi: 140}) {
		t.Fatalf("local segment = %+v, want [90,140) (closest to center)", r.Segs[0])
	}
}

func TestExtractRegionFixpointDemotion(t *testing.T) {
	// A multi-row cell fully inside the window must become non-local when
	// one of its rows' chosen local segment excludes it; its own span then
	// re-divides the rows (paper Figure 3, cells i and c).
	d := dtest.Flat(2, 200)
	// Non-local splitter on row 0 (sticks out of the window on the left).
	dtest.Placed(d, 40, 1, 0, 0) // spans [0,40) on row 0
	// Multi-row cell on rows 0-1, left of the splitter's right edge... place
	// it in the left piece of row 0: [?] Actually put it left of window
	// center so the chosen right piece excludes it.
	mr := dtest.Placed(d, 6, 2, 44, 0)
	g := buildGrid(t, d)
	// Window [10, 190) on rows 0-1; center x = 100.
	r := ExtractRegion(g, geom.Rect{X: 10, Y: 0, W: 180, H: 2})
	// Row 0 candidates (splitter non-local, spans [10,40) blocked):
	// [40, 190) initially — contains mr. Row 1 candidate: full [10,190).
	// Row 0's chosen piece [40,190) contains mr, row 1 too... so mr stays
	// local here. Force the demotion with an additional splitter that cuts
	// row 1 between mr and the center.
	if r.local(mr) == nil {
		t.Fatalf("mr should be local in the permissive window")
	}

	// Second scenario: row-1 splitter makes the chosen row-1 piece exclude mr.
	d2 := dtest.Flat(2, 200)
	dtest.Placed(d2, 40, 1, 0, 0) // row-0 splitter (non-local)
	mr2 := dtest.Placed(d2, 6, 2, 44, 0)
	sp2 := dtest.Placed(d2, 40, 1, 60, 1) // row-1 splitter
	g2 := buildGrid(t, d2)
	// Window [10,190): sp2 ∈ [60,100) is fully inside; make it non-local by
	// marking it fixed so it never counts as local.
	d2.Cell(sp2).Fixed = true
	g2 = buildGrid(t, d2)
	r2 := ExtractRegion(g2, geom.Rect{X: 10, Y: 0, W: 180, H: 2})
	// Row 1 pieces: [10,60) and [100,190); center=100 → right piece chosen.
	// mr2 (rows 0-1, x ∈ [44,50)) is not inside row 1's chosen piece →
	// demoted to non-local → row 0 re-divides around it.
	if r2.local(mr2) != nil {
		t.Fatal("mr2 should have been demoted to non-local")
	}
	// Row 0 pieces after demotion: [40,44) and [50,190) → right chosen.
	if r2.Segs[0].Span != (geom.Span{Lo: 50, Hi: 190}) {
		t.Fatalf("row 0 span after fixpoint = %v", r2.Segs[0].Span)
	}
	if r2.Segs[1].Span != (geom.Span{Lo: 100, Hi: 190}) {
		t.Fatalf("row 1 span = %v", r2.Segs[1].Span)
	}
}

func TestLeftmostRightmostSingleRow(t *testing.T) {
	d := dtest.Flat(1, 100)
	a := dtest.Placed(d, 5, 1, 20, 0)
	b := dtest.Placed(d, 5, 1, 40, 0)
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 100, H: 1})
	ia, ib := r.local(a), r.local(b)
	if ia.xL != 0 || ib.xL != 5 {
		t.Errorf("leftmost: a=%d b=%d, want 0,5", ia.xL, ib.xL)
	}
	if ib.xR != 95 || ia.xR != 90 {
		t.Errorf("rightmost: a=%d b=%d, want 90,95", ia.xR, ib.xR)
	}
	if err := r.checkBounds(); err != nil {
		t.Fatal(err)
	}
}

func TestLeftmostRightmostMultiRowCoupling(t *testing.T) {
	// A double-height cell couples the packing of two rows.
	d := dtest.Flat(2, 100)
	a := dtest.Placed(d, 10, 1, 5, 0) // row 0
	m := dtest.Placed(d, 6, 2, 30, 0) // rows 0-1
	b := dtest.Placed(d, 8, 1, 10, 1) // row 1
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 100, H: 2})
	// Leftmost: a → 0; b → 0; m must clear both a (ends 10) and b (ends 8):
	// xL_m = 10.
	if got := r.local(m).xL; got != 10 {
		t.Errorf("xL(m) = %d, want 10", got)
	}
	// Rightmost: m → min(100,100)−6 = 94; a ≤ 94−10=84; b ≤ 94−8=86.
	if got := r.local(m).xR; got != 94 {
		t.Errorf("xR(m) = %d, want 94", got)
	}
	if got := r.local(a).xR; got != 84 {
		t.Errorf("xR(a) = %d, want 84", got)
	}
	if got := r.local(b).xR; got != 86 {
		t.Errorf("xR(b) = %d, want 86", got)
	}
}

func TestRegionRowListsOrdered(t *testing.T) {
	d := dtest.Flat(3, 100)
	dtest.Placed(d, 5, 3, 50, 0)
	dtest.Placed(d, 5, 1, 10, 1)
	dtest.Placed(d, 5, 1, 30, 1)
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 100, H: 3})
	cells := r.RowCells(1)
	if len(cells) != 3 {
		t.Fatalf("row 1 cells = %v", cells)
	}
	for i := 1; i < len(cells); i++ {
		if d.Cell(cells[i-1]).X >= d.Cell(cells[i]).X {
			t.Fatal("row list not ordered by x")
		}
	}
}

func TestLocalCellsAccessor(t *testing.T) {
	d := dtest.Flat(2, 100)
	a := dtest.Placed(d, 5, 1, 20, 0)
	b := dtest.Placed(d, 5, 1, 40, 1)
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 100, H: 2})
	ids := r.LocalCells()
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("LocalCells = %v", ids)
	}
}
