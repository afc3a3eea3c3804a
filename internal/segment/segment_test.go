package segment_test

import (
	"math/rand"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/segment"
)

func TestBuildNoBlockages(t *testing.T) {
	d := dtest.Flat(3, 100)
	g := segment.Build(d)
	for y := 0; y < 3; y++ {
		segs := g.RowSegments(y)
		if len(segs) != 1 {
			t.Fatalf("row %d: %d segments, want 1", y, len(segs))
		}
		if segs[0].Span != (geom.Span{Lo: 0, Hi: 100}) {
			t.Fatalf("row %d span = %v", y, segs[0].Span)
		}
	}
}

func TestBuildWithBlockages(t *testing.T) {
	d := dtest.Flat(3, 100)
	d.Blockages = append(d.Blockages,
		geom.Rect{X: 20, Y: 0, W: 10, H: 2},  // rows 0,1
		geom.Rect{X: 50, Y: 1, W: 5, H: 1},   // row 1
		geom.Rect{X: -5, Y: 2, W: 10, H: 1},  // clips row 2 left edge
		geom.Rect{X: 95, Y: 2, W: 20, H: 1},  // clips row 2 right edge
		geom.Rect{X: 25, Y: 0, W: 10, H: 1},  // overlapping blockage, row 0
		geom.Rect{X: 200, Y: 0, W: 10, H: 3}, // fully outside
	)
	g := segment.Build(d)

	check := func(y int, want []geom.Span) {
		t.Helper()
		segs := g.RowSegments(y)
		if len(segs) != len(want) {
			t.Fatalf("row %d: %d segments, want %d", y, len(segs), len(want))
		}
		for i, s := range segs {
			if s.Span != want[i] {
				t.Errorf("row %d seg %d span = %v, want %v", y, i, s.Span, want[i])
			}
			if s.Index != i {
				t.Errorf("row %d seg %d index = %d", y, i, s.Index)
			}
		}
	}
	check(0, []geom.Span{{Lo: 0, Hi: 20}, {Lo: 35, Hi: 100}})
	check(1, []geom.Span{{Lo: 0, Hi: 20}, {Lo: 30, Hi: 50}, {Lo: 55, Hi: 100}})
	check(2, []geom.Span{{Lo: 5, Hi: 95}})
}

func TestFixedCellsBlock(t *testing.T) {
	d := dtest.Flat(2, 100)
	id := dtest.Placed(d, 10, 2, 40, 0)
	d.Cell(id).Fixed = true
	g := segment.Build(d)
	for y := 0; y < 2; y++ {
		segs := g.RowSegments(y)
		if len(segs) != 2 || segs[0].Span.Hi != 40 || segs[1].Span.Lo != 50 {
			t.Fatalf("row %d segments wrong: %v %v", y, segs[0].Span, segs[1].Span)
		}
	}
}

func TestSegmentAt(t *testing.T) {
	d := dtest.Flat(1, 100)
	d.Blockages = append(d.Blockages, geom.Rect{X: 40, Y: 0, W: 10, H: 1})
	g := segment.Build(d)
	if s := g.SegmentAt(0, 39); s == nil || s.Span.Hi != 40 {
		t.Fatal("SegmentAt(0,39) wrong")
	}
	if s := g.SegmentAt(0, 40); s != nil {
		t.Fatal("SegmentAt inside blockage should be nil")
	}
	if s := g.SegmentAt(0, 50); s == nil || s.Span.Lo != 50 {
		t.Fatal("SegmentAt(0,50) wrong")
	}
	if g.SegmentAt(5, 0) != nil || g.SegmentAt(-1, 0) != nil {
		t.Fatal("out-of-range rows should give nil")
	}
	if g.SegmentContaining(0, 35, 10) != nil {
		t.Fatal("SegmentContaining should reject spans crossing a blockage")
	}
	if g.SegmentContaining(0, 30, 10) == nil {
		t.Fatal("SegmentContaining should accept a fitting span")
	}
}

func TestInsertRemoveOrder(t *testing.T) {
	d := dtest.Flat(3, 100)
	g := segment.Build(d)
	// Insert out of x order; lists must come out sorted.
	b := dtest.Placed(d, 4, 2, 50, 0)
	a := dtest.Placed(d, 4, 1, 10, 0)
	c := dtest.Placed(d, 4, 3, 70, 0)
	for _, id := range []design.CellID{b, a, c} {
		if err := g.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	row0 := g.RowSegments(0)[0].Cells()
	if len(row0) != 3 || row0[0] != a || row0[1] != b || row0[2] != c {
		t.Fatalf("row 0 list = %v", row0)
	}
	row2 := g.RowSegments(2)[0].Cells()
	if len(row2) != 1 || row2[0] != c {
		t.Fatalf("row 2 list = %v", row2)
	}
	g.Remove(b)
	d.Unplace(b)
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	row1 := g.RowSegments(1)[0].Cells()
	if len(row1) != 1 || row1[0] != c {
		t.Fatalf("row 1 after removal = %v, want [%d]", row1, c)
	}
}

func TestInsertRejectsIllegalContainment(t *testing.T) {
	d := dtest.Flat(2, 100)
	d.Blockages = append(d.Blockages, geom.Rect{X: 40, Y: 0, W: 10, H: 1})
	g := segment.Build(d)
	id := dtest.Placed(d, 20, 1, 30, 0) // crosses the blockage
	if err := g.Insert(id); err == nil {
		t.Fatal("Insert should fail for a cell crossing a blockage")
	}
	tall := dtest.Placed(d, 4, 3, 0, 0) // taller than the floorplan
	if err := g.Insert(tall); err == nil {
		t.Fatal("Insert should fail for a cell leaving the floorplan")
	}
}

func TestFreeAt(t *testing.T) {
	d := dtest.Flat(2, 100)
	g := segment.Build(d)
	a := dtest.Placed(d, 10, 2, 40, 0)
	if err := g.Insert(a); err != nil {
		t.Fatal(err)
	}
	if !g.FreeAt(0, 0, 40, 2) {
		t.Fatal("area left of cell should be free")
	}
	if g.FreeAt(35, 0, 10, 1) {
		t.Fatal("area overlapping cell should not be free")
	}
	if !g.FreeAt(50, 0, 50, 2) {
		t.Fatal("area right of cell should be free")
	}
	if g.FreeAt(95, 0, 10, 1) {
		t.Fatal("area past row end should not be free")
	}
	if g.FreeAt(0, 1, 10, 2) {
		t.Fatal("area above top row should not be free")
	}
}

func TestShiftXKeepsOrder(t *testing.T) {
	d := dtest.Flat(1, 100)
	g := segment.Build(d)
	a := dtest.Placed(d, 5, 1, 10, 0)
	b := dtest.Placed(d, 5, 1, 30, 0)
	for _, id := range []design.CellID{a, b} {
		if err := g.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	g.ShiftX(a, 20)
	g.ShiftX(b, 25)
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !g.FreeAt(0, 0, 20, 1) {
		t.Fatal("freed area should be free after shifts")
	}
}

// TestInsertAllocatesNothing pins Grid.Insert, which runs once per
// placement and per rollback re-insert, to zero heap allocations once
// the segment lists have room: a single-height and a double-height
// insert/remove pair.
func TestInsertAllocatesNothing(t *testing.T) {
	d := dtest.Flat(4, 100)
	g := segment.Build(d)
	ids := []design.CellID{dtest.Placed(d, 5, 1, 10, 0), dtest.Placed(d, 5, 2, 30, 1)}
	pair := func() {
		for _, id := range ids {
			if err := g.Insert(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			g.Remove(id)
		}
	}
	pair() // give every list its capacity
	if avg := testing.AllocsPerRun(100, pair); avg != 0 {
		t.Fatalf("Insert/Remove allocate %.2f times per pair, want 0", avg)
	}
}

func TestCellsIn(t *testing.T) {
	d := dtest.Flat(4, 100)
	g := segment.Build(d)
	a := dtest.Placed(d, 5, 2, 10, 0)
	b := dtest.Placed(d, 5, 1, 30, 1)
	c := dtest.Placed(d, 5, 1, 80, 3)
	for _, id := range []design.CellID{a, b, c} {
		if err := g.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	got := g.CellsIn(geom.Rect{X: 0, Y: 0, W: 50, H: 2}, nil)
	if len(got) != 2 {
		t.Fatalf("CellsIn = %v, want {a,b}", got)
	}
	seen := map[design.CellID]bool{}
	for _, id := range got {
		seen[id] = true
	}
	if !seen[a] || !seen[b] || seen[c] {
		t.Fatalf("CellsIn = %v", got)
	}
	// A window clipping only part of a multi-row cell still reports it once.
	got = g.CellsIn(geom.Rect{X: 10, Y: 1, W: 2, H: 1}, nil)
	if len(got) != 1 || got[0] != a {
		t.Fatalf("CellsIn partial = %v", got)
	}
}

func TestRebuildOccupancy(t *testing.T) {
	d := dtest.Flat(2, 100)
	a := dtest.Placed(d, 5, 1, 10, 0)
	b := dtest.Placed(d, 5, 2, 30, 0)
	g := segment.Build(d)
	if err := g.RebuildOccupancy(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	_ = a
	_ = b
	if g.RowSegments(0)[0].NumCells() != 2 || g.RowSegments(1)[0].NumCells() != 1 {
		t.Fatal("occupancy wrong after rebuild")
	}
}

// Property: random non-overlapping insertions always keep the grid
// consistent, and removals restore emptiness.
func TestRandomInsertRemoveConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := dtest.Flat(6, 200)
		g := segment.Build(d)
		var placed []design.CellID
		for i := 0; i < 40; i++ {
			w := 1 + rng.Intn(8)
			h := 1 + rng.Intn(3)
			x := rng.Intn(200 - w)
			y := rng.Intn(6 - h + 1)
			if !g.FreeAt(x, y, w, h) {
				continue
			}
			id := dtest.Placed(d, w, h, x, y)
			if err := g.Insert(id); err != nil {
				t.Fatalf("trial %d: insert: %v", trial, err)
			}
			placed = append(placed, id)
		}
		if err := g.CheckConsistency(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, id := range placed {
			g.Remove(id)
			d.Unplace(id)
		}
		if err := g.CheckConsistency(); err != nil {
			t.Fatalf("trial %d after removals: %v", trial, err)
		}
		for y := 0; y < 6; y++ {
			for _, s := range g.RowSegments(y) {
				if s.NumCells() != 0 {
					t.Fatalf("trial %d: segment not empty after removals", trial)
				}
			}
		}
	}
}

// TestRebuildOccupancyRejectsOverlap: two preplaced movable cells that
// overlap cannot both enter the x-sorted, non-overlapping cell lists, so
// RebuildOccupancy reports the second.
func TestRebuildOccupancyRejectsOverlap(t *testing.T) {
	d := dtest.Flat(2, 40)
	dtest.Placed(d, 4, 1, 2, 0)
	dtest.Placed(d, 4, 1, 4, 0)
	g := segment.Build(d)
	if err := g.RebuildOccupancy(); err == nil {
		t.Fatal("RebuildOccupancy accepted two overlapping cells")
	}
}
