package segment

import (
	"math/rand"
	"slices"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
)

// blockedSpansPerRow is the per-row scan Build used before blocking
// rectangles were bucketed by row: every blockage and every design cell,
// once per row. Kept verbatim as the reference for
// TestBuildMatchesPerRowScan.
func blockedSpansPerRow(d *design.Design, row *design.Row) []geom.Span {
	var out []geom.Span
	rowRect := geom.Rect{X: row.Span.Lo, Y: row.Y, W: row.Span.Len(), H: 1}
	for _, b := range d.Blockages {
		if ov := rowRect.Intersect(b); !ov.Empty() {
			out = append(out, geom.Span{Lo: ov.X, Hi: ov.X2()})
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed || !c.Placed {
			continue
		}
		if ov := rowRect.Intersect(c.Rect()); !ov.Empty() {
			out = append(out, geom.Span{Lo: ov.X, Hi: ov.X2()})
		}
	}
	return out
}

// TestBuildMatchesPerRowScan checks the row-bucketed build against the
// per-row scan on random dies with multi-row blockages and fixed cells,
// some hanging off the die, plus unplaced fixed cells and placed movable
// cells that must not block.
func TestBuildMatchesPerRowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 500; it++ {
		rows, width := 1+rng.Intn(12), 20+rng.Intn(200)
		d := dtest.Flat(rows, width)
		for i := rng.Intn(6); i > 0; i-- {
			d.Blockages = append(d.Blockages, geom.Rect{
				X: rng.Intn(width+20) - 10, Y: rng.Intn(rows+4) - 2,
				W: 1 + rng.Intn(30), H: 1 + rng.Intn(4),
			})
		}
		for i := rng.Intn(12); i > 0; i-- {
			id := dtest.Placed(d, 1+rng.Intn(12), 1+rng.Intn(4), rng.Intn(width+10)-5, rng.Intn(rows+2)-1)
			switch rng.Intn(4) {
			case 0: // placed movable: never blocks
			case 1:
				d.Cell(id).Fixed = true
				d.Unplace(id)
			default:
				d.Cell(id).Fixed = true
			}
		}
		g := Build(d)
		for ri := range d.Rows {
			row := &d.Rows[ri]
			want := subtractSpans(row.Span, blockedSpansPerRow(d, row))
			var got []geom.Span
			for i, s := range g.RowSegments(row.Y) {
				if s.Row != row.Y || s.Index != i {
					t.Fatalf("iter %d row %d: segment %d has Row=%d Index=%d", it, row.Y, i, s.Row, s.Index)
				}
				got = append(got, s.Span)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("iter %d row %d: segments %v, per-row scan gives %v", it, row.Y, got, want)
			}
		}
	}
}
