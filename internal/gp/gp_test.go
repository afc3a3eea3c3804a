package gp

import (
	"math"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/netlist"
)

func TestPlaceTwoCellsAttract(t *testing.T) {
	d := design.New("t", 200, 2000)
	d.AddUniformRows(10, geom.Span{Lo: 0, Hi: 100})
	mi := d.AddMaster(design.Master{Name: "m", Width: 4, Height: 1, BottomRail: design.VSS})
	a := d.AddCell("a", mi, 0, 0)
	b := d.AddCell("b", mi, 0, 0)
	nl := netlist.New()
	nl.AddNet("n", netlist.Pin{Cell: a, DX: 2, DY: 0.5}, netlist.Pin{Cell: b, DX: 2, DY: 0.5})
	nl.BuildIndex(2)
	st := Place(d, nl, Config{Seed: 1})
	if st.MovableCells != 2 {
		t.Fatalf("stats = %+v", st)
	}
	ca, cb := d.Cell(a), d.Cell(b)
	dist := math.Hypot(ca.GX-cb.GX, (ca.GY-cb.GY)*10)
	if dist > 30 {
		t.Fatalf("connected cells ended up %v apart", dist)
	}
}

func TestPlaceAnchorsToFixedPads(t *testing.T) {
	d := design.New("t", 200, 2000)
	d.AddUniformRows(10, geom.Span{Lo: 0, Hi: 100})
	mi := d.AddMaster(design.Master{Name: "m", Width: 4, Height: 1, BottomRail: design.VSS})
	a := d.AddCell("a", mi, 0, 0)
	nl := netlist.New()
	// Pad pin at (80, 8) pulls the lone cell toward it.
	nl.AddNet("n", netlist.Pin{Cell: a, DX: 2, DY: 0.5}, netlist.Pin{Cell: design.NoCell, DX: 80, DY: 8})
	nl.BuildIndex(1)
	Place(d, nl, Config{Seed: 2})
	c := d.Cell(a)
	if c.GX < 50 || c.GY < 4 {
		t.Fatalf("cell not pulled toward pad: (%v, %v)", c.GX, c.GY)
	}
}

func TestPlaceStaysInBounds(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "t", NumCells: 800, Density: 0.6, Seed: 11})
	Place(b.D, b.NL, Config{Seed: 3})
	bb := b.D.Bounds()
	for i := range b.D.Cells {
		c := &b.D.Cells[i]
		if c.GX < float64(bb.X)-1e-9 || c.GX+float64(c.W) > float64(bb.X2())+1e-9 {
			t.Fatalf("cell %d x out of bounds: %v (w=%d)", i, c.GX, c.W)
		}
		if c.GY < float64(bb.Y)-1e-9 || c.GY+float64(c.H) > float64(bb.Y2())+1e-9 {
			t.Fatalf("cell %d y out of bounds: %v (h=%d)", i, c.GY, c.H)
		}
	}
}

func TestPlaceSpreadsCells(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "t", NumCells: 1500, Density: 0.6, Seed: 13})
	st := Place(b.D, b.NL, Config{Seed: 4})
	if st.PeakUtil > 2.0 {
		t.Fatalf("placement badly congested: peak bin utilization %v", st.PeakUtil)
	}
	// Quadrant occupancy should be roughly balanced.
	bb := b.D.Bounds()
	cx := float64(bb.X) + float64(bb.W)/2
	cy := float64(bb.Y) + float64(bb.H)/2
	var q [4]int
	for i := range b.D.Cells {
		c := &b.D.Cells[i]
		k := 0
		if c.GX > cx {
			k |= 1
		}
		if c.GY > cy {
			k |= 2
		}
		q[k]++
	}
	for k := 0; k < 4; k++ {
		frac := float64(q[k]) / float64(len(b.D.Cells))
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("quadrant %d holds %.0f%% of cells: %v", k, frac*100, q)
		}
	}
}

func TestPlaceBeatsRandomHPWL(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "t", NumCells: 1200, Density: 0.5, Seed: 17})
	// Random placement HPWL baseline: bengen leaves GX/GY at 0, so move
	// every cell to a random spot first.
	d2 := b.D.Clone()
	rngSeed := int64(5)
	Place(b.D, b.NL, Config{Seed: rngSeed})
	placed := b.NL.HPWL(b.D)

	bb := d2.Bounds()
	// Cheap LCG for the random baseline.
	s := uint64(99)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / float64(1<<53)
	}
	for i := range d2.Cells {
		c := &d2.Cells[i]
		c.GX = float64(bb.X) + next()*float64(bb.W-c.W)
		c.GY = float64(bb.Y) + next()*float64(bb.H-c.H)
	}
	random := b.NL.HPWL(d2)
	if placed > random*0.6 {
		t.Fatalf("GP HPWL %v not clearly better than random %v", placed, random)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	mk := func() []float64 {
		b := bengen.Generate(bengen.Spec{Name: "t", NumCells: 400, Density: 0.5, Seed: 19})
		Place(b.D, b.NL, Config{Seed: 7})
		var out []float64
		for i := range b.D.Cells {
			out = append(out, b.D.Cells[i].GX, b.D.Cells[i].GY)
		}
		return out
	}
	a, c := mk(), mk()
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("placement not deterministic at %d", i)
		}
	}
}

func TestPlaceEmptyAndFixedOnly(t *testing.T) {
	d := design.New("t", 200, 2000)
	d.AddUniformRows(4, geom.Span{Lo: 0, Hi: 50})
	nl := netlist.New()
	nl.BuildIndex(0)
	st := Place(d, nl, Config{})
	if st.MovableCells != 0 {
		t.Fatalf("stats = %+v", st)
	}
	mi := d.AddMaster(design.Master{Name: "m", Width: 4, Height: 1})
	id := d.AddCell("f", mi, 0, 0)
	d.Place(id, 10, 1)
	d.Cell(id).Fixed = true
	nl.BuildIndex(1)
	st = Place(d, nl, Config{})
	if st.MovableCells != 0 {
		t.Fatalf("fixed-only design placed cells: %+v", st)
	}
}

// TestPlaceFixedAndPadPins places the golden fixed-cell and pad-pin
// design: fixed cells keep their positions, movable ones land inside the
// die, and the result matches its golden line bit for bit, so repeated
// runs under the race detector also check that the two axis goroutines
// leave the output unchanged.
func TestPlaceFixedAndPadPins(t *testing.T) {
	b := fixedPadBench()
	st := Place(b.D, b.NL, Config{Seed: 3})
	ref := fixedPadBench().D
	bb := b.D.Bounds()
	fixed := 0
	for i := range b.D.Cells {
		c := &b.D.Cells[i]
		if c.Fixed {
			fixed++
			if r := &ref.Cells[i]; c.X != r.X || c.Y != r.Y || c.GX != r.GX || c.GY != r.GY {
				t.Fatalf("fixed cell %d moved", i)
			}
			continue
		}
		if c.GX < float64(bb.X)-1e-9 || c.GX+float64(c.W) > float64(bb.X2())+1e-9 ||
			c.GY < float64(bb.Y)-1e-9 || c.GY+float64(c.H) > float64(bb.Y2())+1e-9 {
			t.Fatalf("cell %d outside the die: (%v, %v)", i, c.GX, c.GY)
		}
	}
	if fixed == 0 {
		t.Fatal("no fixed cells")
	}
	if got, want := goldenLine("fixed-pads", st, b.D), readGolden(t)["fixed-pads"]; got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestPlaceForeignPinPanicsOnCaller: a pin that names a cell outside the
// design panics on Place's calling goroutine, where the caller can
// recover it; a panic on any other goroutine would end the test binary.
func TestPlaceForeignPinPanicsOnCaller(t *testing.T) {
	d := design.New("t", 200, 2000)
	d.AddUniformRows(10, geom.Span{Lo: 0, Hi: 100})
	mi := d.AddMaster(design.Master{Name: "m", Width: 4, Height: 1, BottomRail: design.VSS})
	a := d.AddCell("a", mi, 0, 0)
	d.AddCell("b", mi, 0, 0)
	nl := netlist.New()
	nl.AddNet("n", netlist.Pin{Cell: a, DX: 2, DY: 0.5}, netlist.Pin{Cell: 7, DX: 2, DY: 0.5})
	defer func() {
		if recover() == nil {
			t.Fatal("Place accepted a pin on a cell outside the design")
		}
	}()
	Place(d, nl, Config{Seed: 1})
}
