package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/gp"
	"mrlegal/internal/segment"
)

// chooseLocalSegWholeSegment is chooseLocalSeg as it stood before its
// scan was bounded to the window: it walks each overlapping segment's
// whole cell list from the left end. Kept verbatim as the reference for
// TestChooseLocalSegMatchesWholeSegment.
func chooseLocalSegWholeSegment(g *segment.Grid, d *design.Design, y int, winSpan geom.Span, nonLocal map[design.CellID]bool, centerX, infl int) LocalSeg {
	ls := LocalSeg{Row: y}
	bestDist := 0
	for _, s := range g.RowSegments(y) {
		base := s.Span.Intersect(winSpan)
		if base.Empty() {
			continue
		}
		// Collect the spans of non-local cells on this row and subtract.
		cur := base.Lo
		emit := func(lo, hi int) {
			if hi <= lo {
				return
			}
			sp := geom.Span{Lo: lo, Hi: hi}
			dist := spanDist(sp, centerX)
			if !ls.Valid || dist < bestDist ||
				(dist == bestDist && sp.Len() > ls.Span.Len()) ||
				(dist == bestDist && sp.Len() == ls.Span.Len() && sp.Lo < ls.Span.Lo) {
				ls.Valid = true
				ls.Span = sp
				bestDist = dist
			}
		}
		for _, id := range s.Cells() {
			if !nonLocal[id] {
				continue
			}
			c := d.Cell(id)
			// Cells are x-sorted; once even the maximal inflation cannot
			// reach base.Hi, no later cell can either. (Breaking on a
			// fixed cell's own un-inflated span would be wrong: a later
			// movable cell's inflated span could still intersect.)
			if c.X-infl >= base.Hi {
				break
			}
			cInf := 0
			if infl > 0 && !c.Fixed {
				cInf = infl
			}
			lo, hi := c.X-cInf, c.X+c.W+cInf
			if hi <= cur {
				continue
			}
			if lo >= base.Hi {
				continue
			}
			emit(cur, min(lo, base.Hi))
			cur = max(cur, hi)
			if cur >= base.Hi {
				break
			}
		}
		emit(cur, base.Hi)
	}
	return ls
}

// TestChooseLocalSegMatchesWholeSegment is a fixed-seed differential test
// of the bounded scan against the whole-segment reference: random rows
// split by blockages, packed with movable and fixed cells (some two rows
// tall), random non-local sets, infl ∈ {0, 1, 3}, and windows that hang
// off segment ends and the die edge. Each row's segments also check
// Grid.CellsOverlapping against a linear filter of the whole list.
func TestChooseLocalSegMatchesWholeSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 3000; it++ {
		rows, width := 1+rng.Intn(3), 10+rng.Intn(150)
		d := dtest.Flat(rows, width)
		for i := rng.Intn(4); i > 0; i-- {
			d.Blockages = append(d.Blockages, geom.Rect{
				X: rng.Intn(width), Y: rng.Intn(rows), W: 1 + rng.Intn(6), H: 1 + rng.Intn(2),
			})
		}
		g := segment.Build(d)
		nonLocal := map[design.CellID]bool{}
		for i := rows * width / 2; i > 0; i-- {
			w, h := 1+rng.Intn(8), 1+rng.Intn(min(2, rows))
			x, y := rng.Intn(width-w+1), rng.Intn(rows-h+1)
			if !g.FreeAt(x, y, w, h) {
				continue
			}
			id := dtest.Placed(d, w, h, x, y)
			if err := g.Insert(id); err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(4) {
			case 0:
				d.Cell(id).Fixed = true
				nonLocal[id] = true
			case 1:
				nonLocal[id] = true
			}
		}
		for q := 0; q < 8; q++ {
			lo := rng.Intn(width+30) - 15
			win := geom.Span{Lo: lo, Hi: lo + 1 + rng.Intn(width+15)}
			centerX := win.Lo + (win.Hi-win.Lo)/2
			infl := []int{0, 1, 3}[rng.Intn(3)]
			for y := 0; y < rows; y++ {
				got := chooseLocalSeg(g, d, y, win, nonLocal, centerX, infl)
				want := chooseLocalSegWholeSegment(g, d, y, win, nonLocal, centerX, infl)
				if got.Row != want.Row || got.Valid != want.Valid || got.Span != want.Span {
					t.Fatalf("iter %d row %d win %v infl %d: bounded %+v, whole-segment %+v",
						it, y, win, infl, got, want)
				}
				for _, s := range g.RowSegments(y) {
					sp := geom.Span{Lo: win.Lo - infl, Hi: win.Hi + infl}
					var linear []design.CellID
					for _, id := range s.Cells() {
						if c := d.Cell(id); c.X < sp.Hi && c.X+c.W > sp.Lo {
							linear = append(linear, id)
						}
					}
					if run := g.CellsOverlapping(s, sp); !slices.Equal(run, linear) {
						t.Fatalf("iter %d row %d seg %v span %v: CellsOverlapping %v, linear filter %v",
							it, y, s.Span, sp, run, linear)
					}
				}
			}
		}
	}
}

// TestExtractRowListsOnTable1 extracts windows over partially placed
// Table-1 designs and checks the tables the packed (x, id) sort builds:
// every row list holds exactly the local cells covering that row in
// strictly ascending x, rowPos is its inverse, and xOrder is a
// permutation of the local cells sorted by (x, id).
func TestExtractRowListsOnTable1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spec := range bengen.Table1Specs(2000) {
		b := bengen.Generate(spec)
		gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
		l, err := NewLegalizer(b.D, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Unplace a third of the cells to open gaps of every size.
		for i := range b.D.Cells {
			if c := &b.D.Cells[i]; !c.Fixed && c.Placed && rng.Intn(3) == 0 {
				l.G.Remove(c.ID)
				b.D.Unplace(c.ID)
			}
		}
		sc := newScratch()
		bb := b.D.Bounds()
		for q := 0; q < 40; q++ {
			win := geom.Rect{
				X: bb.X + rng.Intn(bb.W+20) - 10, Y: bb.Y + rng.Intn(bb.H+4) - 2,
				W: 1 + rng.Intn(80), H: 1 + rng.Intn(12),
			}
			checkRowTables(t, spec.Name, sc.extract(l.G, win))
		}
	}
}

func checkRowTables(t *testing.T, name string, r *Region) {
	t.Helper()
	sc := r.sc
	n := len(sc.cells)
	if r.Win.Empty() {
		if n != 0 {
			t.Fatalf("%s: empty window %v has %d local cells", name, r.Win, n)
		}
		return // extract stops before building any table
	}
	order := slices.Clone(sc.xOrder)
	slices.Sort(order)
	for i, li := range order {
		if len(order) != n || int(li) != i {
			t.Fatalf("%s win %v: xOrder %v is not a permutation of the %d local cells", name, r.Win, sc.xOrder, n)
		}
	}
	if !slices.IsSortedFunc(sc.xOrder, func(a, b int32) int {
		ca, cb := &sc.cells[a], &sc.cells[b]
		return cmp.Or(cmp.Compare(ca.x, cb.x), cmp.Compare(ca.id, cb.id))
	}) {
		t.Fatalf("%s win %v: xOrder not sorted by (x, id)", name, r.Win)
	}
	for rel := range r.Segs {
		row := r.AbsRow(rel)
		var want []int32
		for li := range sc.cells {
			if lc := &sc.cells[li]; lc.y <= row && row < lc.y+lc.h {
				want = append(want, int32(li))
			}
		}
		slices.SortFunc(want, func(a, b int32) int { return cmp.Compare(sc.cells[a].x, sc.cells[b].x) })
		if !slices.Equal(sc.rowIdx[rel], want) {
			t.Fatalf("%s win %v row %d: rowIdx %v, want %v", name, r.Win, row, sc.rowIdx[rel], want)
		}
		for p := 1; p < len(want); p++ {
			if sc.cells[want[p-1]].x >= sc.cells[want[p]].x {
				t.Fatalf("%s win %v row %d: x not distinct along the row", name, r.Win, row)
			}
		}
		wantIDs := make([]design.CellID, len(want))
		wantPos := make([]int32, n)
		fill32(wantPos, -1)
		for p, li := range want {
			wantIDs[p] = sc.ids[li]
			wantPos[li] = int32(p)
		}
		if !slices.Equal(r.Segs[rel].Cells, wantIDs) {
			t.Fatalf("%s win %v row %d: Cells %v, want %v", name, r.Win, row, r.Segs[rel].Cells, wantIDs)
		}
		if !slices.Equal(sc.rowPos[rel], wantPos) {
			t.Fatalf("%s win %v row %d: rowPos %v is not the inverse of %v", name, r.Win, row, sc.rowPos[rel], want)
		}
	}
}
