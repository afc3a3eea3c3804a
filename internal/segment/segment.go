// Package segment maintains the segment model of §2.1.2: each placement
// row, minus blockages and fixed cells, decomposes into maximal runs of
// free sites called segments. Every segment keeps the list of placed cells
// that overlap it, ordered by x; a cell of height h appears in h segment
// lists, one per row it spans.
//
// The Grid is the live bookkeeping structure the legalizer mutates as it
// places, shifts and removes cells.
package segment

import (
	"fmt"
	"sort"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
)

// Segment is one maximal run of unblocked placement sites on a row.
type Segment struct {
	Row   int       // row index (y coordinate)
	Index int       // position of this segment within its row, left to right
	Span  geom.Span // x extent

	// cells overlapping this segment's row within Span, ordered by
	// ascending x. Maintained by Grid.
	cells []design.CellID
}

// Cells returns the ordered cell list. The slice is owned by the segment;
// callers must not mutate it.
func (s *Segment) Cells() []design.CellID { return s.cells }

// NumCells returns the number of cells currently on the segment.
func (s *Segment) NumCells() int { return len(s.cells) }

// Grid holds all segments of a design and the per-segment cell lists.
type Grid struct {
	d     *design.Design
	rows  [][]*Segment // rows[y] sorted by Span.Lo
	xspan geom.Span    // union of row extents: the horizontal die span
}

// Build constructs the segment decomposition for d from its rows,
// blockages and fixed placed cells. Movable placed cells are NOT inserted;
// call Insert (or RebuildOccupancy) for those.
func Build(d *design.Design) *Grid {
	g := &Grid{d: d, rows: make([][]*Segment, d.NumRows())}
	blocked := blockedByRow(d)
	for ri := range d.Rows {
		row := &d.Rows[ri]
		if ri == 0 {
			g.xspan = row.Span
		} else {
			g.xspan.Lo = min(g.xspan.Lo, row.Span.Lo)
			g.xspan.Hi = max(g.xspan.Hi, row.Span.Hi)
		}
		free := subtractSpans(row.Span, blocked[row.Y])
		segs := make([]*Segment, 0, len(free))
		for i, sp := range free {
			segs = append(segs, &Segment{Row: row.Y, Index: i, Span: sp})
		}
		g.rows[row.Y] = segs
	}
	return g
}

// blockedByRow returns, per row index, the x spans of that row that are
// unusable — blockages and fixed placed cells clipped to the row —
// unsorted and possibly overlapping. Each blocking rectangle is visited
// once and bucketed into the rows it covers, so the build is linear in
// the design rather than rows × cells.
func blockedByRow(d *design.Design) [][]geom.Span {
	out := make([][]geom.Span, d.NumRows())
	add := func(r geom.Rect) {
		for y := max(r.Y, 0); y < min(r.Y2(), len(out)); y++ {
			row := d.RowAt(y)
			rowRect := geom.Rect{X: row.Span.Lo, Y: row.Y, W: row.Span.Len(), H: 1}
			if ov := rowRect.Intersect(r); !ov.Empty() {
				out[y] = append(out[y], geom.Span{Lo: ov.X, Hi: ov.X2()})
			}
		}
	}
	for _, b := range d.Blockages {
		add(b)
	}
	for i := range d.Cells {
		if c := &d.Cells[i]; c.Fixed && c.Placed {
			add(c.Rect())
		}
	}
	return out
}

// subtractSpans removes the given (unsorted, possibly overlapping) spans
// from base and returns the remaining maximal free spans in ascending
// order.
func subtractSpans(base geom.Span, blocked []geom.Span) []geom.Span {
	if len(blocked) == 0 {
		return []geom.Span{base}
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].Lo < blocked[j].Lo })
	var out []geom.Span
	cur := base.Lo
	for _, b := range blocked {
		if b.Hi <= cur {
			continue
		}
		if b.Lo > cur {
			out = append(out, geom.Span{Lo: cur, Hi: min(b.Lo, base.Hi)})
		}
		cur = max(cur, b.Hi)
		if cur >= base.Hi {
			break
		}
	}
	if cur < base.Hi {
		out = append(out, geom.Span{Lo: cur, Hi: base.Hi})
	}
	// Drop empties that can arise from blockages outside the base span.
	keep := out[:0]
	for _, sp := range out {
		if !sp.Empty() {
			keep = append(keep, sp)
		}
	}
	return keep
}

// Design returns the design this grid indexes.
func (g *Grid) Design() *design.Design { return g.d }

// XSpan returns the union of all row extents — the horizontal die span.
// Every segment (and so every placed cell) lies inside it, which is what
// lets window clipping (core's region extraction) normalize away off-die
// window area.
func (g *Grid) XSpan() geom.Span { return g.xspan }

// RowSegments returns the segments of row y, left to right. The slice is
// owned by the grid.
func (g *Grid) RowSegments(y int) []*Segment {
	if y < 0 || y >= len(g.rows) {
		return nil
	}
	return g.rows[y]
}

// SegmentAt returns the segment of row y whose span contains x, or nil.
func (g *Grid) SegmentAt(y, x int) *Segment {
	segs := g.RowSegments(y)
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Span.Hi > x })
	if i < len(segs) && segs[i].Span.ContainsInt(x) {
		return segs[i]
	}
	return nil
}

// SegmentContaining returns the segment of row y that fully contains
// [x, x+w), or nil if no single segment does.
func (g *Grid) SegmentContaining(y, x, w int) *Segment {
	s := g.SegmentAt(y, x)
	if s == nil || x+w > s.Span.Hi {
		return nil
	}
	return s
}

// cellX returns cell id's x, the key the per-segment lists are ordered by.
func (g *Grid) cellX(id design.CellID) int { return g.d.Cells[id].X }

// lowerBound returns the index of the first cell in s whose x >= x.
func (g *Grid) lowerBound(s *Segment, x int) int {
	return sort.Search(len(s.cells), func(i int) bool { return g.cellX(s.cells[i]) >= x })
}

// Insert adds the placed cell c to the cell list of every segment it
// spans. It returns an error when the cell does not fit inside a single
// segment on one of its rows (i.e. the position is not legal with respect
// to row containment), in which case no list is modified.
func (g *Grid) Insert(id design.CellID) error {
	c := &g.d.Cells[id]
	if !c.Placed {
		return fmt.Errorf("segment: Insert unplaced cell %d", id)
	}
	// Validate every row before touching any list, then resolve each
	// row's segment again to insert. Holding the segments instead would
	// take a heap slice per call, and Insert runs once per placement.
	for h := 0; h < c.H; h++ {
		if g.SegmentContaining(c.Y+h, c.X, c.W) == nil {
			return fmt.Errorf("segment: cell %d (%s) at (%d,%d) w=%d not contained in a segment of row %d",
				id, c.Name, c.X, c.Y, c.W, c.Y+h)
		}
	}
	for h := 0; h < c.H; h++ {
		s := g.SegmentContaining(c.Y+h, c.X, c.W)
		i := g.lowerBound(s, c.X)
		s.cells = append(s.cells, design.NoCell)
		copy(s.cells[i+1:], s.cells[i:])
		s.cells[i] = id
	}
	return nil
}

// Remove deletes the cell from every segment list it appears in. The
// cell's recorded position must be unchanged since Insert.
func (g *Grid) Remove(id design.CellID) {
	c := &g.d.Cells[id]
	for h := 0; h < c.H; h++ {
		s := g.SegmentAt(c.Y+h, c.X)
		if s == nil {
			continue
		}
		i := g.indexIn(s, id)
		if i < 0 {
			continue
		}
		s.cells = append(s.cells[:i], s.cells[i+1:]...)
	}
}

// indexIn returns the index of id within s's list, or -1. It binary
// searches by the cell's current x and scans outward to tolerate
// duplicate-x corner cases.
func (g *Grid) indexIn(s *Segment, id design.CellID) int {
	x := g.cellX(id)
	i := g.lowerBound(s, x)
	for j := i; j < len(s.cells) && g.cellX(s.cells[j]) == x; j++ {
		if s.cells[j] == id {
			return j
		}
	}
	for j := i - 1; j >= 0; j-- {
		if s.cells[j] == id {
			return j
		}
		if g.cellX(s.cells[j]) < x {
			break
		}
	}
	return -1
}

// ShiftX moves a placed cell horizontally to newX, updating its position.
// The relative order within every segment list must be preserved by the
// caller (the legalizer only shifts cells within their gaps), so the lists
// need no structural update — only the design position changes.
func (g *Grid) ShiftX(id design.CellID, newX int) {
	g.d.Cells[id].X = newX
}

// CellsOverlapping returns the run of s's cell list whose occupied
// extent [X, X+W) overlaps the non-empty span sp, in list order. Lists
// are x-sorted and non-overlapping, so left and right edges both ascend
// and both ends of the run are binary searches: the cost is O(log n)
// however long the segment. The slice aliases the segment's list;
// callers must not mutate it or keep it across a grid mutation.
func (g *Grid) CellsOverlapping(s *Segment, sp geom.Span) []design.CellID {
	cells := s.cells
	i := sort.Search(len(cells), func(i int) bool {
		c := &g.d.Cells[cells[i]]
		return c.X+c.W > sp.Lo
	})
	j := i + sort.Search(len(cells)-i, func(k int) bool { return g.cellX(cells[i+k]) >= sp.Hi })
	return cells[i:j]
}

// FreeAt reports whether the rectangle (x, y, w, h) lies fully on free
// sites: contained in one segment per row and overlapping no placed cell.
func (g *Grid) FreeAt(x, y, w, h int) bool {
	for dy := 0; dy < h; dy++ {
		s := g.SegmentContaining(y+dy, x, w)
		if s == nil || len(g.CellsOverlapping(s, geom.Span{Lo: x, Hi: x + w})) > 0 {
			return false
		}
	}
	return true
}

// CellsIn appends to dst the distinct cells whose occupied area intersects
// the window rectangle, and returns dst. Each cell is reported once, at
// the first window row it covers, so the order is row-major: rows bottom
// to top, and within a row by segment and then by x. It is not ID order.
// Passing a reused buffer as dst makes the call allocation-free once warm.
func (g *Grid) CellsIn(win geom.Rect, dst []design.CellID) []design.CellID {
	sp := geom.Span{Lo: win.X, Hi: win.X2()}
	for y := win.Y; y < win.Y2(); y++ {
		for _, s := range g.RowSegments(y) {
			if !s.Span.Overlaps(sp) {
				continue
			}
			for _, id := range g.CellsOverlapping(s, sp) {
				// A multi-row cell sits in the list of every row it
				// spans; take it only on its first row in the window.
				if y == win.Y || g.d.Cells[id].Y == y {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// RebuildOccupancy clears every cell list and re-inserts all placed
// movable cells. It returns the first error: a cell that no segment
// contains, or one that overlaps a cell inserted before it. Such a cell is
// left out, so the lists stay x-sorted and non-overlapping.
func (g *Grid) RebuildOccupancy() error {
	for _, segs := range g.rows {
		for _, s := range segs {
			s.cells = s.cells[:0]
		}
	}
	var firstErr error
	for i := range g.d.Cells {
		c := &g.d.Cells[i]
		if c.Fixed || !c.Placed {
			continue
		}
		err := g.overlapErr(c)
		if err == nil {
			err = g.Insert(c.ID)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// overlapErr reports a listed cell that placed cell c overlaps, on any row
// where one segment contains c.
func (g *Grid) overlapErr(c *design.Cell) error {
	for h := 0; h < c.H; h++ {
		if s := g.SegmentContaining(c.Y+h, c.X, c.W); s != nil {
			if ov := g.CellsOverlapping(s, geom.Span{Lo: c.X, Hi: c.X + c.W}); len(ov) > 0 {
				return fmt.Errorf("segment: cell %d (%s) at (%d,%d) overlaps cell %d", c.ID, c.Name, c.X, c.Y, ov[0])
			}
		}
	}
	return nil
}

// CheckConsistency validates the grid invariants: every list is sorted by
// x with no overlapping neighbors, every placed movable cell appears in
// exactly H lists, and every listed cell actually overlaps its segment.
// It is O(total list length) and intended for tests.
func (g *Grid) CheckConsistency() error {
	count := make(map[design.CellID]int)
	for _, segs := range g.rows {
		for _, s := range segs {
			prevEnd := s.Span.Lo
			for i, id := range s.cells {
				c := &g.d.Cells[id]
				if !c.Placed {
					return fmt.Errorf("segment: row %d seg %v lists unplaced cell %d", s.Row, s.Span, id)
				}
				if c.X < s.Span.Lo || c.X+c.W > s.Span.Hi {
					return fmt.Errorf("segment: cell %d x-range [%d,%d) outside segment row %d %v", id, c.X, c.X+c.W, s.Row, s.Span)
				}
				if c.Y > s.Row || c.Y+c.H <= s.Row {
					return fmt.Errorf("segment: cell %d y-range [%d,%d) does not cover row %d", id, c.Y, c.Y+c.H, s.Row)
				}
				if c.X < prevEnd {
					return fmt.Errorf("segment: row %d seg %v cells overlap or out of order at index %d (cell %d)", s.Row, s.Span, i, id)
				}
				prevEnd = c.X + c.W
				count[id]++
			}
		}
	}
	for i := range g.d.Cells {
		c := &g.d.Cells[i]
		if c.Fixed || !c.Placed {
			continue
		}
		if count[c.ID] != c.H {
			return fmt.Errorf("segment: cell %d appears in %d lists, want %d", c.ID, count[c.ID], c.H)
		}
	}
	return nil
}
