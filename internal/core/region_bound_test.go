package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/constraint"
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
		var marks epochSet
		marks.reset(len(d.Cells))
		for id := range nonLocal {
			marks.add(id)
		}
		for q := 0; q < 8; q++ {
			lo := rng.Intn(width+30) - 15
			win := geom.Span{Lo: lo, Hi: lo + 1 + rng.Intn(width+15)}
			centerX := win.Lo + (win.Hi-win.Lo)/2
			infl := []int{0, 1, 3}[rng.Intn(3)]
			for y := 0; y < rows; y++ {
				got := chooseLocalSeg(g, d, y, win, &marks, centerX, infl)
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
// Table-1 designs and checks the tables built from xOrder, extract's
// counting sort by (x, id): every row list holds exactly the local cells
// covering that row in strictly ascending x, rowPos is its inverse, and
// xOrder is a permutation of the local cells sorted by (x, id).
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

// cellsInSorted is Grid.CellsIn as it stood before it reported each cell
// at its first window row: every row's overlapping run is collected, and
// a sort-and-compact drops the multi-row duplicates, leaving ID order.
func cellsInSorted(g *segment.Grid, win geom.Rect, dst []design.CellID) []design.CellID {
	base := len(dst)
	sp := geom.Span{Lo: win.X, Hi: win.X2()}
	for y := win.Y; y < win.Y2(); y++ {
		for _, s := range g.RowSegments(y) {
			if s.Span.Overlaps(sp) {
				dst = append(dst, g.CellsOverlapping(s, sp)...)
			}
		}
	}
	// Multi-row cells were collected once per spanned row; sort-and-compact
	// dedups without a per-call map.
	tail := dst[base:]
	slices.Sort(tail)
	tail = slices.Compact(tail)
	return dst[:base+len(tail)]
}

// refScratch holds the two buffers the reference extraction owned that
// scratch no longer has; every other buffer is the embedded scratch's.
type refScratch struct {
	*scratch
	nonLocal map[design.CellID]bool
	xKeys    []uint64
}

func newRefScratch() *refScratch {
	return &refScratch{scratch: newScratch(), nonLocal: map[design.CellID]bool{}}
}

// extract is scratch.extract as it stood before it dropped its map and
// its sorts over the window: CellsIn's sort-and-compact (cellsInSorted),
// the nonLocal map, a re-division of every window row in each fixpoint
// pass and the packed (x, id) key sort. It is kept verbatim but for three
// substitutions: cellsInSorted for g.CellsIn, sc.scratch for sc, and
// chooseLocalSegWholeSegment, the map-keyed reference that
// TestChooseLocalSegMatchesWholeSegment pins to chooseLocalSeg. It is the
// reference for TestExtractMatchesReference.
func (sc *refScratch) extract(g *segment.Grid, win geom.Rect) *Region {
	d := g.Design()
	// Normalize the window to the grid: rows outside [0, NumRows) and
	// x-extent beyond the die span hold no segments, so clipping changes
	// nothing the fixpoint can see.
	sp := g.XSpan()
	xLo, xHi := max(win.X, sp.Lo), min(win.X2(), sp.Hi)
	yLo, yHi := max(win.Y, 0), min(win.Y2(), d.NumRows())
	win = geom.Rect{X: xLo, Y: yLo, W: xHi - xLo, H: yHi - yLo}
	r := &sc.region
	*r = Region{D: d, G: g, Win: win, sc: sc.scratch}
	sc.ids = sc.ids[:0]
	sc.cells = sc.cells[:0]
	sc.multiRow = sc.multiRow[:0]
	sc.candidates = sc.candidates[:0]
	sc.sortedIDs = 0
	clear(sc.nonLocal)
	if win.Empty() {
		r.Segs = nil
		return r
	}
	winSpan := geom.Span{Lo: win.X, Hi: win.X2()}

	// With gap-requiring constraints active, cells wholly outside the
	// window but within MaxGap of its x-edges still constrain local
	// cells; collect from the inflated window so their (inflated)
	// spans participate in the subtraction below. Containment stays on
	// the un-inflated window.
	infl := 0
	colWin := win
	if sc.cons != nil {
		if infl = sc.cons.MaxGap(); infl > 0 {
			colWin.X -= infl
			colWin.W += 2 * infl
		}
	}
	sc.all = cellsInSorted(g, colWin, sc.all[:0])
	for _, id := range sc.all {
		c := d.Cell(id)
		if c.Fixed || !win.Contains(c.Rect()) {
			sc.nonLocal[id] = true
		} else {
			sc.candidates = append(sc.candidates, id)
		}
	}
	slices.Sort(sc.candidates)

	centerX := win.X + win.W/2
	sc.segs = grow(sc.segs, win.H)
	r.Segs = sc.segs
	for {
		// Divide each window row into free runs and choose the run
		// closest to the window centre.
		for rel := 0; rel < win.H; rel++ {
			y := win.Y + rel
			r.Segs[rel] = chooseLocalSegWholeSegment(g, d, y, winSpan, sc.nonLocal, centerX, infl)
		}
		// Demote cells that are not fully inside the chosen local
		// segments of every row they span.
		changed := false
		for _, id := range sc.candidates {
			if sc.nonLocal[id] {
				continue
			}
			c := d.Cell(id)
			for h := 0; h < c.H; h++ {
				ls := &r.Segs[r.RelRow(c.Y+h)]
				if !ls.Valid || !ls.Span.Contains(geom.Span{Lo: c.X, Hi: c.X + c.W}) {
					sc.nonLocal[id] = true
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}

	// Populate the dense local-cell table (candidates are ID-sorted, so
	// the local index order is the ID order).
	for _, id := range sc.candidates {
		if sc.nonLocal[id] {
			continue
		}
		c := d.Cell(id)
		var cls uint8
		if sc.cons != nil {
			cls = sc.cons.Class(d.MasterOf(id), c.W, c.H)
		}
		sc.ids = append(sc.ids, id)
		sc.cells = append(sc.cells, localCell{id: id, x: c.X, y: c.Y, w: c.W, h: c.H, cls: cls})
		if c.H > 1 {
			sc.multiRow = append(sc.multiRow, int32(len(sc.ids)-1))
		}
	}
	sc.sortedIDs = len(sc.ids)
	n := len(sc.ids)

	// One packed-integer sort gives the global (x, id) order: local index
	// order is ID order, and every local cell lies inside the window, so
	// x−win.X fits the high half of the key.
	sc.xKeys = grow(sc.xKeys, n)
	for li := range sc.cells {
		sc.xKeys[li] = uint64(sc.cells[li].x-win.X)<<32 | uint64(li)
	}
	slices.Sort(sc.xKeys)
	sc.xOrder = grow(sc.xOrder, n)
	for i, k := range sc.xKeys {
		sc.xOrder[i] = int32(uint32(k))
	}

	// Per-row cell lists (IDs and local indices, sorted by x) and the
	// inverse position table. Walking xOrder appends each row's cells in
	// x order; x is distinct within a legal row, so that order is unique.
	// Each list keeps one slot of headroom so the realization's temporary
	// target insert never reallocates.
	sc.rowLists = growOuter(sc.rowLists, win.H)
	sc.rowIdx = growOuter(sc.rowIdx, win.H)
	sc.rowPos = growOuter(sc.rowPos, win.H)
	for rel := range r.Segs {
		sc.rowIdx[rel] = sc.rowIdx[rel][:0]
	}
	for _, li := range sc.xOrder {
		lc := &sc.cells[li]
		for h := 0; h < lc.h; h++ {
			rel := r.RelRow(lc.y + h)
			sc.rowIdx[rel] = append(sc.rowIdx[rel], li)
		}
	}
	for rel := range r.Segs {
		idxs := slices.Grow(sc.rowIdx[rel], 1)
		lst := slices.Grow(sc.rowLists[rel][:0], len(idxs)+1)
		for _, li := range idxs {
			lst = append(lst, sc.ids[li])
		}
		sc.rowIdx[rel], sc.rowLists[rel] = idxs, lst
		r.Segs[rel].Cells = lst

		pos := grow(sc.rowPos[rel], n)
		fill32(pos, -1)
		for p, li := range idxs {
			pos[li] = int32(p)
		}
		sc.rowPos[rel] = pos
	}
	r.computeBounds()
	return r
}

// regionDiff returns "" when two extractions agree on everything MLL
// reads: the window, every local segment (row, validity, span, cell
// list), the local IDs and cells (bounds included), multiRow, xOrder and
// the per-row index and position tables. Otherwise it names the first
// difference.
func regionDiff(got, want *Region) string {
	if got.Win != want.Win {
		return fmt.Sprintf("Win %v, want %v", got.Win, want.Win)
	}
	if len(got.Segs) != len(want.Segs) {
		return fmt.Sprintf("%d Segs, want %d", len(got.Segs), len(want.Segs))
	}
	for rel, w := range want.Segs {
		g := got.Segs[rel]
		if g.Row != w.Row || g.Valid != w.Valid || g.Span != w.Span || !slices.Equal(g.Cells, w.Cells) {
			return fmt.Sprintf("Segs[%d] = %+v, want %+v", rel, g, w)
		}
	}
	gs, ws := got.sc, want.sc
	switch {
	case !slices.Equal(gs.ids, ws.ids):
		return fmt.Sprintf("ids %v, want %v", gs.ids, ws.ids)
	case gs.sortedIDs != ws.sortedIDs:
		return fmt.Sprintf("sortedIDs %d, want %d", gs.sortedIDs, ws.sortedIDs)
	case !slices.Equal(gs.cells, ws.cells):
		return fmt.Sprintf("cells %+v, want %+v", gs.cells, ws.cells)
	case !slices.Equal(gs.multiRow, ws.multiRow):
		return fmt.Sprintf("multiRow %v, want %v", gs.multiRow, ws.multiRow)
	case want.Win.Empty():
		return "" // extract stops before building any table
	case !slices.Equal(gs.xOrder, ws.xOrder):
		return fmt.Sprintf("xOrder %v, want %v", gs.xOrder, ws.xOrder)
	}
	for rel := range want.Segs {
		if !slices.Equal(gs.rowIdx[rel], ws.rowIdx[rel]) {
			return fmt.Sprintf("rowIdx[%d] %v, want %v", rel, gs.rowIdx[rel], ws.rowIdx[rel])
		}
		if !slices.Equal(gs.rowPos[rel], ws.rowPos[rel]) {
			return fmt.Sprintf("rowPos[%d] %v, want %v", rel, gs.rowPos[rel], ws.rowPos[rel])
		}
	}
	return ""
}

// TestExtractMatchesReference is a fixed-seed differential test of
// scratch.extract against the reference extraction above. One scratch
// serves every window, as a legalizer's scratch does, over four fixtures
// in turn:
//   - a long-row GenerateSized design, partially placed: paper-sized
//     windows, windows under a constraint set with MaxGap > 0, and
//     die-covering windows like the escalated retry rounds';
//   - the non-local stamps' epoch forced through its wrap on that
//     design: the first windows replay after the wrap, shifted, at the
//     epochs they first ran at, so a stamp surviving the wrap would mark
//     a cell of the new window;
//   - partially placed Table-1 designs, smaller than the first, so the
//     stamp slice is longer than the roster;
//   - a session whose roster grows by committed insert batches and
//     shrinks by rolled-back ones between extractions, with a second
//     wrap inside it. The session's own MLL calls use the same scratch.
func TestExtractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sc, ref := newScratch(), newRefScratch()
	windows := 0
	check := func(tag string, g *segment.Grid, win geom.Rect) {
		t.Helper()
		ref.cons = sc.cons
		want := ref.extract(g, win)
		got := sc.extract(g, win)
		if diff := regionDiff(got, want); diff != "" {
			t.Fatalf("%s, window %d %v (epoch %d): %s", tag, windows, win, sc.marks.epoch, diff)
		}
		windows++
	}
	// randWin draws a window around the die: paper-sized on average, up
	// to w×h, hanging off every edge now and then.
	randWin := func(bb geom.Rect, w, h int) geom.Rect {
		return geom.Rect{
			X: bb.X + rng.Intn(bb.W+20) - 10, Y: bb.Y + rng.Intn(bb.H+4) - 2,
			W: 1 + rng.Intn(w), H: 1 + rng.Intn(h),
		}
	}
	// unplaceSome legalizes d, then unplaces one movable cell in frac to
	// open gaps of every size.
	unplaceSome := func(d *design.Design, frac int) *Legalizer {
		l, err := NewLegalizer(d, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := range d.Cells {
			if c := &d.Cells[i]; !c.Fixed && c.Placed && rng.Intn(frac) == 0 {
				l.G.Remove(c.ID)
				d.Unplace(c.ID)
			}
		}
		return l
	}

	// Long rows: a 20k-cell GenerateSized design.
	sized := unplaceSome(bengen.GenerateSized(bengen.SizeSpec{Name: "sized_20k", NumCells: 20_000, Seed: 3}), 4)
	bb := sized.D.Bounds()
	type ran struct {
		win   geom.Rect
		epoch uint32
	}
	var before []ran // the non-empty windows and the epochs they ran at
	for q := 0; q < 600; q++ {
		win := randWin(bb, 90, 14)
		e := sc.marks.epoch
		check("sized_20k", sized.G, win)
		if sc.marks.epoch != e {
			before = append(before, ran{win, sc.marks.epoch})
		}
	}
	spacing, err := constraint.NewSpacing(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := constraint.NewTPL(1)
	if err != nil {
		t.Fatal(err)
	}
	if sc.cons, err = constraint.NewSet(spacing, tpl); err != nil {
		t.Fatal(err)
	}
	if sc.cons.MaxGap() == 0 {
		t.Fatal("constraint set has MaxGap 0")
	}
	for q := 0; q < 400; q++ {
		check("sized_20k spacing+tpl", sized.G, randWin(bb, 90, 14))
	}
	sc.cons = nil
	for q := 0; q < 6; q++ {
		m := rng.Intn(40)
		check("sized_20k die-covering", sized.G, geom.Rect{X: bb.X - m, Y: bb.Y - m/8, W: bb.W + 2*m, H: bb.H + m/4})
	}

	// The wrap: run the epoch out, then replay each window from before,
	// shifted, at the epoch it first ran at. The first replay wraps.
	sc.marks.epoch = math.MaxUint32 - 50
	for sc.marks.epoch != math.MaxUint32 {
		check("sized_20k before wrap", sized.G, randWin(bb, 90, 14))
	}
	for i, b := range before {
		if i > 0 {
			sc.marks.epoch = b.epoch - 1
		}
		b.win.X += 1 + rng.Intn(8)
		check("sized_20k after wrap", sized.G, b.win)
		// A window shifted off the die extracts nothing and takes no
		// epoch; the first one must not, or nothing wraps.
		if (i == 0 || !sc.region.Win.Empty()) && sc.marks.epoch != b.epoch {
			t.Fatalf("replayed window %d ran at epoch %d, want %d", i, sc.marks.epoch, b.epoch)
		}
	}

	// Table-1 designs.
	for _, spec := range bengen.Table1Specs(2000) {
		b := bengen.Generate(spec)
		gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
		l := unplaceSome(b.D, 3)
		bb := b.D.Bounds()
		for q := 0; q < 100; q++ {
			check(spec.Name, l.G, randWin(bb, 80, 12))
		}
	}

	// A session's roster, grown and shrunk between extractions by batches
	// that run their MLL calls on the same scratch.
	s, live := dirtyFixture(t, nil)
	l := s.l
	l.sc, sc.region.l = sc, l
	l.Cfg.MaxRounds, l.Cfg.EscalateWindow = 3, false
	sc.marks.epoch = math.MaxUint32 - 300
	pick := newRNG(37)
	committed, failed := 0, 0
	bb = l.D.Bounds()
	for batch := 0; batch < 60; batch++ {
		deltas := make([]Delta, 1+pick.intn(4))
		for j := range deltas {
			c := l.D.Cell(live[pick.intn(len(live))])
			deltas[j] = Delta{Op: DeltaInsert, Master: c.Master,
				TX: float64(c.X + pick.rangeInt(4)), TY: float64(c.Y)}
		}
		if _, err := s.ApplyDelta(context.Background(), deltas); err == nil {
			committed++
		} else {
			failed++
		}
		sc.cons = nil
		for q := 0; q < 12; q++ {
			check("session", l.G, randWin(bb, 40, 8))
		}
	}
	if committed < 2 || failed < 10 {
		t.Fatalf("session: %d committed and %d failed batches; the check needs both", committed, failed)
	}
	if sc.marks.epoch > math.MaxUint32/2 {
		t.Fatalf("session: epoch %d never wrapped", sc.marks.epoch)
	}
	t.Logf("%d windows, %d committed and %d rolled-back batches", windows, committed, failed)
}

// TestEpochSetResetEmpties checks the non-local stamp set directly: every
// reset empties it, across a wrap of the epoch and when the roster
// shrinks and grows back. The IDs above the small roster keep stamps from
// epoch 3, which the epoch reaches again after the wrap.
func TestEpochSetResetEmpties(t *testing.T) {
	const big, small = 64, 8
	var s epochSet
	reset := func(n int) {
		t.Helper()
		s.reset(n)
		for id := range design.CellID(n) {
			if s.has(id) {
				t.Fatalf("epoch %d, roster %d: cell %d is in the set after reset", s.epoch, n, id)
			}
			s.add(id)
		}
	}
	for range 3 {
		reset(big)
	}
	s.epoch = math.MaxUint32 - 1
	for range 3 {
		reset(small) // epochs MaxUint32, then 1 and 2 after the wrap
	}
	reset(big)
	if s.epoch != 3 {
		t.Fatalf("epoch %d after the wrap, want 3", s.epoch)
	}
}

// TestSqueezesAgreeWithoutConstraints pins computeBounds' two squeezes
// to each other: on random windows of partially placed Table-1 designs,
// the gap-free squeeze a nil set selects must give every local cell the
// xL/xR that the gap-aware squeeze gives under an empty, non-nil set,
// whose gaps are 0 and whose clamp is open.
func TestSqueezesAgreeWithoutConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	empty, err := constraint.NewSet()
	if err != nil {
		t.Fatal(err)
	}
	sc := newScratch()
	windows, slack := 0, 0
	for _, spec := range bengen.Table1Specs(2000)[:3] {
		b := bengen.Generate(spec)
		gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
		l, err := NewLegalizer(b.D, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := range b.D.Cells {
			if c := &b.D.Cells[i]; !c.Fixed && c.Placed && rng.Intn(3) == 0 {
				l.G.Remove(c.ID)
				b.D.Unplace(c.ID)
			}
		}
		bb := b.D.Bounds()
		for q := 0; q < 300; q++ {
			win := geom.Rect{
				X: bb.X + rng.Intn(bb.W+20) - 10, Y: bb.Y + rng.Intn(bb.H+4) - 2,
				W: 1 + rng.Intn(80), H: 1 + rng.Intn(12),
			}
			sc.cons = nil
			r := sc.extract(l.G, win)
			if len(sc.cells) == 0 {
				continue
			}
			free := slices.Clone(sc.cells)
			sc.cons = empty
			r.computeBounds()
			for li := range sc.cells {
				got, want := &free[li], &sc.cells[li]
				if got.xL != want.xL || got.xR != want.xR {
					t.Fatalf("%s, window %v: cell %d gap-free bounds [%d,%d], gap-aware [%d,%d]",
						spec.Name, win, got.id, got.xL, got.xR, want.xL, want.xR)
				}
				if got.xL < got.x && got.x < got.xR {
					slack++
				}
			}
			windows++
		}
	}
	if slack == 0 {
		t.Fatal("no cell has room on both sides; the comparison proves nothing")
	}
	t.Logf("%d windows, %d cells with xL < x < xR", windows, slack)
}
