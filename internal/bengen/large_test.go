package bengen

import (
	"math"
	"testing"
)

func TestGenerateSizedDeterministic(t *testing.T) {
	spec := SizeSpec{Name: "det", NumCells: 5000, Density: 0.55, Seed: 11}
	a, b := GenerateSized(spec), GenerateSized(spec)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := &a.Cells[i], &b.Cells[i]
		if ca.W != cb.W || ca.H != cb.H || ca.GX != cb.GX || ca.GY != cb.GY {
			t.Fatalf("cell %d differs across identical seeds", i)
		}
	}
}

func TestGenerateSizedShape(t *testing.T) {
	d := GenerateSized(SizeSpec{Name: "shape", NumCells: 20000, Seed: 5})
	if len(d.Cells) != 20000 {
		t.Fatalf("cells = %d", len(d.Cells))
	}
	st := d.CellStats()
	if st.MaxHeight != 2 {
		t.Fatalf("max height = %d", st.MaxHeight)
	}
	if st.MultiRow < 1600 || st.MultiRow > 2400 {
		t.Fatalf("double-height cells = %d, want ≈2000", st.MultiRow)
	}
	if den := d.Density(); math.Abs(den-0.6) > 0.05 {
		t.Fatalf("density = %v, want ≈0.6", den)
	}
	b := d.Bounds()
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.GX < 0 || c.GY < 0 || int(c.GX)+c.W > b.W || int(math.Ceil(c.GY))+c.H > b.H {
			t.Fatalf("cell %d input position off die: (%v,%v) %dx%d in %dx%d",
				i, c.GX, c.GY, c.W, c.H, b.W, b.H)
		}
	}
}

func TestGenerateSizedMillionCells(t *testing.T) {
	if testing.Short() {
		t.Skip("million-cell generation skipped in -short mode")
	}
	d := GenerateSized(SizeSpec{Name: "m1", NumCells: 1_000_000, Seed: 42})
	if len(d.Cells) != 1_000_000 {
		t.Fatalf("cells = %d", len(d.Cells))
	}
	if den := d.Density(); math.Abs(den-0.6) > 0.05 {
		t.Fatalf("density = %v, want ≈0.6", den)
	}
}
