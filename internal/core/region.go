// Package core implements the paper's primary contribution: the Multi-row
// Local Legalization algorithm (MLL, §4–§5) and the top-level legalization
// driver (Algorithm 1, §3).
//
// The pipeline for one MLL call is:
//
//	window → ExtractRegion (§2.1.3) → leftmost/rightmost placement and
//	insertion intervals (§5.1.1) → scanline enumeration of valid insertion
//	points (§5.1.3) → evaluation (§5.2) → realization (§5.3, Algorithm 2).
//
// All intermediate state of one pipeline instance lives in a scratch
// struct: the driver reuses one scratch per worker, so a warmed-up MLL
// call performs almost no heap allocation.
package core

import (
	"fmt"
	"slices"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/segment"
)

// localCell carries the per-cell state MLL needs inside one region.
type localCell struct {
	id   design.CellID
	x, y int // current placement
	w, h int
	xL   int // x in the leftmost placement (§5.1.1)
	xR   int // x in the rightmost placement
	// cls is the cell's composite constraint class (constraint.Set);
	// always 0 when no constraints are active.
	cls uint8
}

// LocalSeg is the single local segment chosen on one window row
// (§2.1.3). Rows with no usable free run have Valid == false.
type LocalSeg struct {
	Row   int // absolute row index
	Valid bool
	Span  geom.Span // local segment extent (subset of one grid segment)
	// Cells overlapping this row inside Span, ordered by x. All entries
	// are local cells. The backing array is owned by the region's scratch
	// and is invalidated by the next extraction into the same scratch.
	Cells []design.CellID
}

// Region is an extracted local legalization problem: the window, the
// chosen local segment per row, and the local cells (cells completely
// contained in the local segments, all free to shift horizontally).
//
// A region is a pure snapshot: after extraction, enumeration and
// evaluation read only region-local state, never the grid or design —
// this is what lets the shard driver plan regions concurrently while
// another thread commits elsewhere.
type Region struct {
	D   *design.Design
	G   *segment.Grid
	Win geom.Rect // clipped window

	// Segs has one entry per window row, bottom to top; Segs[i] covers
	// absolute row Win.Y+i.
	Segs []LocalSeg

	// sc owns all local-cell storage: the sorted ID list, the dense
	// localCell slice it indexes, per-row cell/index lists and the
	// position tables. Local cells are addressed by their "local index",
	// the position of their ID in sc.ids.
	sc *scratch

	// onTouch, when non-nil, is invoked with a cell ID immediately before
	// the cell's design or grid state is mutated; the legalizer wires it
	// to the active transaction's undo logging.
	onTouch func(design.CellID)
	// insertFn, when non-nil, replaces the raw grid insert for the target
	// commit (fault-injection hook).
	insertFn func(design.CellID) error
	// onRealize, when non-nil, fires mid-realization-commit (see
	// FaultInjector.OnRealize).
	onRealize func(design.CellID)
}

// touch notifies the transaction layer (when wired) that cell id is about
// to be mutated.
func (r *Region) touch(id design.CellID) {
	if r.onTouch != nil {
		r.onTouch(id)
	}
}

// insertCell inserts the target through the fault-injection hook when one
// is wired, the raw grid otherwise.
func (r *Region) insertCell(id design.CellID) error {
	if r.insertFn != nil {
		return r.insertFn(id)
	}
	return r.G.Insert(id)
}

// localIdx returns the local index of cell id, or -1 when the cell is not
// local. The sorted prefix of sc.ids is binary-searched; the (at most
// one) unsorted tail entry — the realization target — is scanned.
func (r *Region) localIdx(id design.CellID) int {
	sc := r.sc
	if i, ok := slices.BinarySearch(sc.ids[:sc.sortedIDs], id); ok {
		return i
	}
	for j := sc.sortedIDs; j < len(sc.ids); j++ {
		if sc.ids[j] == id {
			return j
		}
	}
	return -1
}

// local returns the localCell state for id, or nil when not local.
func (r *Region) local(id design.CellID) *localCell {
	if i := r.localIdx(id); i >= 0 {
		return &r.sc.cells[i]
	}
	return nil
}

// NumLocalCells returns the number of local cells |C_W|.
func (r *Region) NumLocalCells() int { return len(r.sc.ids) }

// LocalCells returns the IDs of all local cells in ascending ID order.
func (r *Region) LocalCells() []design.CellID {
	return slices.Clone(r.sc.ids)
}

// RelRow converts an absolute row index to a window-relative one.
func (r *Region) RelRow(y int) int { return y - r.Win.Y }

// AbsRow converts a window-relative row index to an absolute one.
func (r *Region) AbsRow(rel int) int { return rel + r.Win.Y }

// ExtractRegion builds the local region for the given window (§2.1.3)
// into a fresh scratch, so the returned region stays valid independently
// of later extractions. The legalizer's internal callers use
// scratch.extract directly to reuse buffers.
//
// Cells not completely inside the window are non-local. Each window row is
// divided by blockages, segment boundaries and non-local cells into free
// runs; the run closest to the window centre becomes the row's local
// segment. A cell is local only when every row it spans contains it inside
// that row's local segment; marking a cell non-local re-divides the rows,
// so the division iterates to a fixpoint (this is how cells like i and c
// in Figure 3 end up non-local despite being inside the window).
func ExtractRegion(g *segment.Grid, win geom.Rect) *Region {
	return newScratch().extract(g, win)
}

// extract is ExtractRegion into this scratch's reusable storage. The
// returned region aliases the scratch; the next extract invalidates it.
func (sc *scratch) extract(g *segment.Grid, win geom.Rect) *Region {
	d := g.Design()
	// Normalize the window to the grid: rows outside [0, NumRows) and
	// x-extent beyond the die span hold no segments, so clipping changes
	// nothing the fixpoint can see.
	sp := g.XSpan()
	xLo, xHi := max(win.X, sp.Lo), min(win.X2(), sp.Hi)
	yLo, yHi := max(win.Y, 0), min(win.Y2(), d.NumRows())
	win = geom.Rect{X: xLo, Y: yLo, W: xHi - xLo, H: yHi - yLo}
	r := &sc.region
	*r = Region{D: d, G: g, Win: win, sc: sc}
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
	sc.all = g.CellsIn(colWin, sc.all[:0])
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
			r.Segs[rel] = chooseLocalSeg(g, d, y, winSpan, sc.nonLocal, centerX, infl)
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

// growOuter resizes a slice-of-slices to length n while keeping every
// previously grown inner slice (and its capacity) reusable.
func growOuter[T any](s [][]T, n int) [][]T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([][]T, n)
	copy(out, s[:cap(s)])
	return out
}

// chooseLocalSeg divides row y inside winSpan by blockages/segment
// boundaries and non-local cells and returns the free run closest to
// centerX, per §2.1.3.
//
// infl (the constraint set's MaxGap, 0 without constraints) inflates
// each MOVABLE non-local cell's subtracted span by infl on both sides:
// local cells then provably keep at least the largest required gap from
// every movable cell outside the local segments, which is what makes
// cross-window gap enforcement sound. Fixed cells stay un-inflated —
// they are walls, and the engine never requires gaps across walls.
func chooseLocalSeg(g *segment.Grid, d *design.Design, y int, winSpan geom.Span, nonLocal map[design.CellID]bool, centerX, infl int) LocalSeg {
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
		// Only a cell whose maximally inflated span reaches base can cut
		// it, and those form one contiguous run of the x-sorted list.
		reach := geom.Span{Lo: base.Lo - infl, Hi: base.Hi + infl}
		for _, id := range g.CellsOverlapping(s, reach) {
			if !nonLocal[id] {
				continue
			}
			c := d.Cell(id)
			cInf := 0
			if infl > 0 && !c.Fixed {
				cInf = infl
			}
			lo, hi := c.X-cInf, c.X+c.W+cInf
			// lo >= base.Hi only for a fixed (un-inflated) cell in the
			// run's inflated right margin.
			if hi <= cur || lo >= base.Hi {
				continue
			}
			emit(cur, lo)
			cur = max(cur, hi)
			if cur >= base.Hi {
				break
			}
		}
		emit(cur, base.Hi)
	}
	return ls
}

// spanDist is the horizontal distance from x to the span (0 when inside).
func spanDist(sp geom.Span, x int) int {
	switch {
	case x < sp.Lo:
		return sp.Lo - x
	case x >= sp.Hi:
		return x - (sp.Hi - 1)
	default:
		return 0
	}
}

// computeBounds fills in the leftmost and rightmost placements xL/xR of
// every local cell (§5.1.1) with a two-pass multi-segment squeeze. Cells
// are processed in extract's (x, id) order sc.xOrder, which is consistent
// with the per-segment order because the current placement is legal.
func (r *Region) computeBounds() {
	sc := r.sc
	n := len(sc.cells)
	cons := sc.cons
	if cons != nil {
		// Per-row index of the most recently squeezed cell, for the
		// pairwise gap terms. Reset before each pass.
		sc.conPrev = grow(sc.conPrev, len(r.Segs))
		fill32(sc.conPrev, -1)
	}
	sc.cursor = grow(sc.cursor, len(r.Segs))
	for rel := range r.Segs {
		if r.Segs[rel].Valid {
			sc.cursor[rel] = r.Segs[rel].Span.Lo
		} else {
			sc.cursor[rel] = 0
		}
	}
	for _, li := range sc.xOrder {
		lc := &sc.cells[li]
		var xl int
		if cons == nil {
			xl = sc.cursor[r.RelRow(lc.y)]
			for h := 1; h < lc.h; h++ {
				xl = max(xl, sc.cursor[r.RelRow(lc.y+h)])
			}
		} else {
			// Gap-aware squeeze: on each spanned row the cell must clear
			// the previous cell plus the required pairwise gap, and its
			// own NarrowX clamp (fence members stay inside their region
			// even in the leftmost placement).
			xl = int(^uint(0)>>1) * -1 // MinInt+1; overwritten below
			for h := 0; h < lc.h; h++ {
				rel := r.RelRow(lc.y + h)
				c := sc.cursor[rel]
				if p := sc.conPrev[rel]; p >= 0 {
					c += cons.Gap(sc.cells[p].cls, lc.cls)
				}
				if h == 0 || c > xl {
					xl = c
				}
			}
			if lo, _ := cons.NarrowX(lc.cls, lc.w); lo > xl {
				xl = lo
			}
		}
		lc.xL = xl
		for h := 0; h < lc.h; h++ {
			rel := r.RelRow(lc.y + h)
			sc.cursor[rel] = xl + lc.w
			if cons != nil {
				sc.conPrev[rel] = li
			}
		}
	}
	if cons != nil {
		fill32(sc.conPrev, -1)
	}
	for rel := range r.Segs {
		if r.Segs[rel].Valid {
			sc.cursor[rel] = r.Segs[rel].Span.Hi
		} else {
			sc.cursor[rel] = 0
		}
	}
	for i := n - 1; i >= 0; i-- {
		li := sc.xOrder[i]
		lc := &sc.cells[li]
		xr := int(^uint(0) >> 1) // MaxInt
		if cons == nil {
			for h := 0; h < lc.h; h++ {
				rel := r.RelRow(lc.y + h)
				xr = min(xr, sc.cursor[rel]-lc.w)
			}
		} else {
			for h := 0; h < lc.h; h++ {
				rel := r.RelRow(lc.y + h)
				c := sc.cursor[rel]
				if p := sc.conPrev[rel]; p >= 0 {
					c -= cons.Gap(lc.cls, sc.cells[p].cls)
				}
				xr = min(xr, c-lc.w)
			}
			if _, hi := cons.NarrowX(lc.cls, lc.w); hi < xr {
				xr = hi
			}
		}
		lc.xR = xr
		for h := 0; h < lc.h; h++ {
			rel := r.RelRow(lc.y + h)
			sc.cursor[rel] = xr
			if cons != nil {
				sc.conPrev[rel] = li
			}
		}
	}
}

// checkBounds validates xL ≤ x ≤ xR for every local cell; the input
// placement being legal guarantees it. Used by tests and debug mode.
func (r *Region) checkBounds() error {
	for i := range r.sc.cells {
		lc := &r.sc.cells[i]
		if lc.xL > lc.x || lc.x > lc.xR {
			return fmt.Errorf("core: cell %d bounds xL=%d x=%d xR=%d inconsistent", lc.id, lc.xL, lc.x, lc.xR)
		}
	}
	return nil
}
