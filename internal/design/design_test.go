package design_test

import (
	"math"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
)

func TestRailConventions(t *testing.T) {
	d := dtest.Flat(6, 100)
	if d.RowBottomRail(0) != design.VSS || d.RowBottomRail(1) != design.VDD {
		t.Fatal("rows should alternate VSS/VDD from row 0")
	}
	odd := design.Master{Name: "odd", Width: 2, Height: 1, BottomRail: design.VSS}
	tall := design.Master{Name: "tall3", Width: 2, Height: 3, BottomRail: design.VSS}
	even := design.Master{Name: "even", Width: 2, Height: 2, BottomRail: design.VDD}
	for y := 0; y < 6; y++ {
		if !d.RailCompatible(&odd, y) {
			t.Errorf("odd-height cell should fit row %d", y)
		}
		if !d.RailCompatible(&tall, y) {
			t.Errorf("triple-height cell should fit row %d", y)
		}
		want := y%2 == 1 // VDD-bottom rows are the odd ones
		if got := d.RailCompatible(&even, y); got != want {
			t.Errorf("even cell on row %d: compatible=%v, want %v", y, got, want)
		}
	}
}

func TestOrientFor(t *testing.T) {
	d := dtest.Flat(4, 100)
	m := design.Master{Name: "m", Width: 1, Height: 1, BottomRail: design.VSS}
	if d.OrientFor(&m, 0) != design.N {
		t.Error("matching rails should give orientation N")
	}
	if d.OrientFor(&m, 1) != design.FS {
		t.Error("mismatched rails should give orientation FS")
	}
}

func TestPlaceSetsOrient(t *testing.T) {
	d := dtest.Flat(4, 100)
	id := dtest.Unplaced(d, 2, 1, 0, 0)
	d.Place(id, 5, 1)
	c := d.Cell(id)
	if !c.Placed || c.X != 5 || c.Y != 1 {
		t.Fatalf("Place did not record position: %+v", c)
	}
	if c.Orient != design.FS {
		t.Errorf("VSS-bottom cell on VDD-bottom row should flip, got %v", c.Orient)
	}
	d.Unplace(id)
	if d.Cell(id).Placed {
		t.Error("Unplace did not clear Placed")
	}
}

func TestDispSites(t *testing.T) {
	d := dtest.Flat(4, 100)
	id := dtest.Unplaced(d, 2, 1, 10.5, 1.0)
	d.Place(id, 12, 2)
	// dx = 1.5 sites; dy = 1 row = SiteH/SiteW = 10 site widths.
	got := d.Cell(id).DispSites(d.SiteW, d.SiteH)
	want := 1.5 + float64(dtest.SiteH)/float64(dtest.SiteW)
	if got != want {
		t.Fatalf("DispSites = %v, want %v", got, want)
	}
	d.Unplace(id)
	if d.Cell(id).DispSites(d.SiteW, d.SiteH) != 0 {
		t.Fatal("unplaced cell should have zero displacement")
	}
}

func TestAreasAndDensity(t *testing.T) {
	d := dtest.Flat(4, 100) // 400 sites of row area
	dtest.Placed(d, 10, 2, 0, 0)
	dtest.Placed(d, 5, 1, 20, 3)
	if got := d.CellArea(); got != 25 {
		t.Fatalf("CellArea = %d, want 25", got)
	}
	if got := d.PlaceableArea(); got != 400 {
		t.Fatalf("PlaceableArea = %d, want 400", got)
	}
	d.Blockages = append(d.Blockages, geom.Rect{X: 0, Y: 0, W: 10, H: 2})
	if got := d.PlaceableArea(); got != 380 {
		t.Fatalf("PlaceableArea with blockage = %d, want 380", got)
	}
	if got := d.Density(); got != 25.0/380.0 {
		t.Fatalf("Density = %v", got)
	}
}

func TestFixedCellConsumesArea(t *testing.T) {
	d := dtest.Flat(4, 100)
	id := dtest.Placed(d, 10, 1, 0, 0)
	d.Cell(id).Fixed = true
	if got := d.PlaceableArea(); got != 390 {
		t.Fatalf("PlaceableArea = %d, want 390", got)
	}
	if got := d.CellArea(); got != 0 {
		t.Fatalf("CellArea should skip fixed cells, got %d", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := dtest.Flat(4, 100)
	id := dtest.Placed(d, 3, 1, 10, 2)
	nd := d.Clone()
	nd.Cell(id).X = 99
	nd.Lib[0].Width = 77
	nd.Rows[0].Span.Hi = 1
	if d.Cell(id).X == 99 || d.Lib[0].Width == 77 || d.Rows[0].Span.Hi == 1 {
		t.Fatal("Clone shares memory with the original")
	}
}

func TestCellStats(t *testing.T) {
	d := dtest.Flat(6, 100)
	dtest.Placed(d, 2, 1, 0, 0)
	dtest.Placed(d, 2, 2, 5, 1)
	dtest.Placed(d, 2, 3, 10, 0)
	fx := dtest.Placed(d, 4, 1, 20, 0)
	d.Cell(fx).Fixed = true
	s := d.CellStats()
	if s.SingleRow != 1 || s.MultiRow != 2 || s.Fixed != 1 || s.MaxHeight != 3 {
		t.Fatalf("CellStats = %+v", s)
	}
}

func TestBounds(t *testing.T) {
	d := dtest.Flat(3, 50)
	b := d.Bounds()
	if (b != geom.Rect{X: 0, Y: 0, W: 50, H: 3}) {
		t.Fatalf("Bounds = %v", b)
	}
}

func TestResetPlacement(t *testing.T) {
	d := dtest.Flat(3, 50)
	a := dtest.Placed(d, 2, 1, 0, 0)
	f := dtest.Placed(d, 2, 1, 10, 0)
	d.Cell(f).Fixed = true
	d.ResetPlacement()
	if d.Cell(a).Placed {
		t.Error("movable cell should be unplaced after reset")
	}
	if !d.Cell(f).Placed {
		t.Error("fixed cell should stay placed after reset")
	}
}

func TestTotalDispSites(t *testing.T) {
	d := dtest.Flat(3, 50)
	a := dtest.Unplaced(d, 2, 1, 0, 0)
	b := dtest.Unplaced(d, 2, 1, 10, 0)
	d.Place(a, 2, 0)
	d.Place(b, 14, 0)
	total, avg := d.TotalDispSites()
	if total != 6 || avg != 3 {
		t.Fatalf("TotalDispSites = %v,%v want 6,3", total, avg)
	}
}

func TestAddCellPanicsOnBadMaster(t *testing.T) {
	d := dtest.Flat(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid master index")
		}
	}()
	d.AddCell("x", 5, 0, 0)
}

// TestValidate holds Design.Validate to one case per rule: a valid design
// passes, and each edit that breaks one rule fails.
func TestValidate(t *testing.T) {
	base := func() *design.Design {
		d := dtest.Flat(3, 40)
		d.Blockages = append(d.Blockages, geom.Rect{X: 30, Y: 0, W: 4, H: 2})
		dtest.Placed(d, 2, 1, 3, 1)
		dtest.Unplaced(d, 4, 2, 10.5, 0.5)
		fx := dtest.Placed(d, 3, 1, 20, 2)
		d.Cell(fx).Fixed = true
		return d
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid design: %v", err)
	}
	cases := []struct {
		name string
		edit func(d *design.Design)
	}{
		// With no masters either: a master always fails to fit no rows.
		{"no rows", func(d *design.Design) { d.Rows, d.Lib, d.Cells = nil, nil, nil }},
		{"a row index skipped", func(d *design.Design) { d.Rows[2].Y = 3 }},
		{"a row index twice", func(d *design.Design) { d.Rows[2].Y = 1 }},
		{"a negative row index", func(d *design.Design) { d.Rows[0].Y = -1 }},
		{"an empty row span", func(d *design.Design) { d.Rows[1].Span.Hi = d.Rows[1].Span.Lo }},
		{"a row span past MaxCoord", func(d *design.Design) { d.Rows[1].Span.Hi = design.MaxCoord + 1 }},
		{"a row span below -MaxCoord", func(d *design.Design) { d.Rows[1].Span.Lo = -design.MaxCoord - 1 }},
		{"a blockage of negative width", func(d *design.Design) { d.Blockages[0].W = -1 }},
		{"a blockage past MaxCoord", func(d *design.Design) { d.Blockages[0].X = design.MaxCoord + 1 }},
		{"a blockage taller than MaxCoord", func(d *design.Design) { d.Blockages[0].H = design.MaxCoord + 1 }},
		{"a master of width 0", func(d *design.Design) { d.Lib[0].Width = 0 }},
		{"a master wider than MaxCoord", func(d *design.Design) { d.Lib[0].Width = design.MaxCoord + 1 }},
		{"a master of height 0", func(d *design.Design) { d.Lib[0].Height = 0 }},
		{"a master taller than the rows", func(d *design.Design) { d.Lib[1].Height = 4 }},
		{"a NaN input x", func(d *design.Design) { d.Cells[1].GX = math.NaN() }},
		{"an infinite input y", func(d *design.Design) { d.Cells[1].GY = math.Inf(-1) }},
		{"an input x past MaxCoord", func(d *design.Design) { d.Cells[1].GX = design.MaxCoord + 1 }},
		{"a cell placed above the rows", func(d *design.Design) { d.Cells[0].Y = 3 }},
		{"a cell placed below the rows", func(d *design.Design) { d.Cells[0].Y = -1 }},
		{"a cell placed past MaxCoord", func(d *design.Design) { d.Cells[0].X = -design.MaxCoord - 1 }},
		{"a fixed cell not placed", func(d *design.Design) { d.Cells[2].Placed = false }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := base()
			c.edit(d)
			if err := d.Validate(); err == nil {
				t.Fatal("Validate passed")
			}
		})
	}
}

// TestValidateSortsRows: rows may come in any order; Validate sorts them
// by Y, so Rows[y] is row y.
func TestValidateSortsRows(t *testing.T) {
	d := design.New("d", 200, 2000)
	for _, y := range []int{2, 0, 1} {
		d.Rows = append(d.Rows, design.Row{Y: y, Span: geom.Span{Lo: y, Hi: 40}})
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for y := range d.Rows {
		if r := d.RowAt(y); r.Y != y || r.Span.Lo != y {
			t.Fatalf("RowAt(%d) = %+v", y, *r)
		}
	}
}
