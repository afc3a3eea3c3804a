package segment_test

import (
	"testing"

	"mrlegal/internal/dtest"
	"mrlegal/internal/segment"
)

// gens snapshots the generation counter of every segment of the grid in
// row-major order.
func gens(g *segment.Grid, rows int) []uint64 {
	var out []uint64
	for y := 0; y < rows; y++ {
		for _, s := range g.RowSegments(y) {
			out = append(out, s.Generation())
		}
	}
	return out
}

// TestGenerationBumps pins the generation contract: Insert, Remove, ShiftX
// and RebuildOccupancy each advance the counter of exactly the segments
// whose cell-list content they change, and the counter never decreases.
func TestGenerationBumps(t *testing.T) {
	const rows = 3
	d := dtest.Flat(rows, 100)
	g := segment.Build(d)

	before := gens(g, rows)
	for _, v := range before {
		if v != 0 {
			t.Fatalf("fresh grid generation = %d, want 0", v)
		}
	}

	// Insert a 2-row cell: rows 0 and 1 bump, row 2 does not.
	id := dtest.Placed(d, 10, 2, 20, 0)
	if err := g.Insert(id); err != nil {
		t.Fatal(err)
	}
	after := gens(g, rows)
	if after[0] != before[0]+1 || after[1] != before[1]+1 {
		t.Fatalf("Insert: rows 0,1 generations %v, want +1 over %v", after, before)
	}
	if after[2] != before[2] {
		t.Fatalf("Insert: untouched row 2 generation changed: %v -> %v", before[2], after[2])
	}

	// ShiftX bumps every segment listing the cell (order-preserving shift).
	before = after
	g.ShiftX(id, 22)
	after = gens(g, rows)
	if after[0] != before[0]+1 || after[1] != before[1]+1 || after[2] != before[2] {
		t.Fatalf("ShiftX: generations %v, want rows 0,1 bumped over %v", after, before)
	}
	if d.Cell(id).X != 22 {
		t.Fatalf("ShiftX did not move the cell: x=%d", d.Cell(id).X)
	}

	// Remove bumps the same segments.
	before = after
	g.Remove(id)
	after = gens(g, rows)
	if after[0] != before[0]+1 || after[1] != before[1]+1 || after[2] != before[2] {
		t.Fatalf("Remove: generations %v, want rows 0,1 bumped over %v", after, before)
	}

	// RebuildOccupancy bumps every segment (the clear is a content change),
	// and re-inserting the placed cell bumps its rows again.
	d.Place(id, 22, 0)
	if err := g.Insert(id); err != nil {
		t.Fatal(err)
	}
	before = gens(g, rows)
	if err := g.RebuildOccupancy(); err != nil {
		t.Fatal(err)
	}
	after = gens(g, rows)
	for i := range after {
		if after[i] <= before[i] {
			t.Fatalf("RebuildOccupancy: segment %d generation %d did not advance past %d",
				i, after[i], before[i])
		}
	}

	// Monotonicity over a mixed mutation sequence.
	prev := gens(g, rows)
	g.ShiftX(id, 25)
	g.Remove(id)
	d.Place(id, 30, 0)
	if err := g.Insert(id); err != nil {
		t.Fatal(err)
	}
	cur := gens(g, rows)
	for i := range cur {
		if cur[i] < prev[i] {
			t.Fatalf("generation decreased on segment %d: %d -> %d", i, prev[i], cur[i])
		}
	}
}

// TestGenerationEqualImpliesEqualContent spot-checks the Generation
// contract: if a segment's generation is unchanged, its cell list
// (membership, order and x positions) is unchanged.
func TestGenerationEqualImpliesEqualContent(t *testing.T) {
	d := dtest.Flat(2, 100)
	g := segment.Build(d)
	a := dtest.Placed(d, 10, 1, 10, 0)
	b := dtest.Placed(d, 10, 1, 40, 0)
	if err := g.RebuildOccupancy(); err != nil {
		t.Fatal(err)
	}
	s := g.RowSegments(0)[0]
	gen0 := s.Generation()
	snap := append([]int(nil), d.Cell(a).X, d.Cell(b).X)

	// Mutations confined to row 1 must leave row 0's generation alone.
	c := dtest.Placed(d, 5, 1, 70, 1)
	if err := g.Insert(c); err != nil {
		t.Fatal(err)
	}
	g.ShiftX(c, 72)
	if s.Generation() != gen0 {
		t.Fatalf("row-1 mutations changed row-0 generation %d -> %d", gen0, s.Generation())
	}
	if d.Cell(a).X != snap[0] || d.Cell(b).X != snap[1] {
		t.Fatal("row-0 content changed without a generation bump")
	}

	// Any row-0 mutation must change it.
	g.ShiftX(a, 12)
	if s.Generation() == gen0 {
		t.Fatal("ShiftX on row 0 left its generation unchanged")
	}
}
