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
// All intermediate state of one pipeline call lives in a scratch struct.
// A Legalizer keeps one and reuses it for every call, so a warmed-up MLL
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
// evaluation read only region-local state, never the grid or design.
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

	// l is the legalizer that owns sc. Realize routes its mutations
	// through it: undo logging before each cell is touched, the fault
	// hooks, and the target's grid insert. NewLegalizer sets it once and
	// extractions keep it; it is nil on ExtractRegion's standalone
	// regions, which mutate the grid directly.
	l *Legalizer
}

// touch records cell id in the legalizer's undo log before it is
// mutated. A standalone region has no log.
func (r *Region) touch(id design.CellID) {
	if r.l != nil {
		r.l.touch(id)
	}
}

// insertCell inserts the target through the legalizer's fault hook, or
// into the raw grid on a standalone region.
func (r *Region) insertCell(id design.CellID) error {
	if r.l != nil {
		return r.l.insertGrid(id)
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
// of later extractions. The fresh scratch costs allocations on every
// call, among them a 4-byte non-local stamp per design cell (800 KB on a
// 200k-cell design). The legalizer's internal callers use scratch.extract
// directly to reuse buffers, and pay that once per scratch.
//
// Cells not completely inside the window are non-local. Each window row is
// divided by blockages, segment boundaries and non-local cells into free
// runs; the run closest to the window centre becomes the row's local
// segment. A cell is local only when every row it spans contains it inside
// that row's local segment; marking a cell non-local re-divides the rows,
// so the division iterates to a fixpoint (this is how cells like i and c
// in Figure 3 end up non-local despite being inside the window). Each
// pass after the first re-divides only the rows of the cells it demoted.
func ExtractRegion(g *segment.Grid, win geom.Rect) *Region {
	return newScratch().extract(g, win)
}

// extract is ExtractRegion into this scratch's reusable storage. The
// returned region aliases the scratch; the next extract invalidates it.
// It uses no map and sorts only the candidate IDs: window cells arrive
// deduplicated from Grid.CellsIn, non-local marks are epoch stamps, and
// xOrder comes from a counting sort.
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
	*r = Region{D: d, G: g, Win: win, sc: sc, l: r.l}
	sc.ids = sc.ids[:0]
	sc.cells = sc.cells[:0]
	sc.multiRow = sc.multiRow[:0]
	sc.candidates = sc.candidates[:0]
	sc.sortedIDs = 0
	if win.Empty() {
		r.Segs = nil
		return r
	}
	sc.marks.reset(len(d.Cells))
	winSpan := geom.Span{Lo: win.X, Hi: win.X2()}

	// With gap-requiring constraints active, cells wholly outside the
	// window but within MaxGap of its x-edges still constrain local
	// cells; collect from the inflated window so their (inflated)
	// spans participate in the subtraction below. Containment stays on
	// the un-inflated window.
	infl := sc.cons.MaxGap()
	colWin := win
	colWin.X -= infl
	colWin.W += 2 * infl
	sc.all = g.CellsIn(colWin, sc.all[:0])
	for _, id := range sc.all {
		c := d.Cell(id)
		if c.Fixed || !win.Contains(c.Rect()) {
			sc.marks.add(id)
		} else {
			sc.candidates = append(sc.candidates, id)
		}
	}
	slices.Sort(sc.candidates)

	centerX := win.X + win.W/2
	sc.segs = grow(sc.segs, win.H)
	r.Segs = sc.segs
	sc.rowDirty = grow(sc.rowDirty, win.H)
	for rel := range sc.rowDirty {
		sc.rowDirty[rel] = true
	}
	for {
		// Divide each window row whose non-local set changed into free
		// runs and choose the run closest to the window centre.
		for rel, dirty := range sc.rowDirty {
			if dirty {
				r.Segs[rel] = chooseLocalSeg(g, d, win.Y+rel, winSpan, &sc.marks, centerX, infl)
				sc.rowDirty[rel] = false
			}
		}
		// Demote cells that are not fully inside the chosen local
		// segments of every row they span, and mark those rows for
		// re-division. Survivors keep their ID order.
		kept := sc.candidates[:0]
		for _, id := range sc.candidates {
			c := d.Cell(id)
			if r.fitsLocalSegs(c) {
				kept = append(kept, id)
				continue
			}
			sc.marks.add(id)
			for h := 0; h < c.H; h++ {
				sc.rowDirty[r.RelRow(c.Y+h)] = true
			}
		}
		if len(kept) == len(sc.candidates) {
			break
		}
		sc.candidates = kept
	}

	// Populate the dense local-cell table (the surviving candidates are
	// ID-sorted, so the local index order is the ID order).
	for _, id := range sc.candidates {
		c := d.Cell(id)
		cls := sc.cons.Class(d.MasterOf(id), c.W, c.H)
		sc.ids = append(sc.ids, id)
		sc.cells = append(sc.cells, localCell{id: id, x: c.X, y: c.Y, w: c.W, h: c.H, cls: cls})
		if c.H > 1 {
			sc.multiRow = append(sc.multiRow, int32(len(sc.ids)-1))
		}
	}
	sc.sortedIDs = len(sc.ids)
	n := len(sc.ids)

	// A stable counting sort on x−win.X, fed in local-index (ID) order,
	// gives the global (x, id) order; every local cell lies inside the
	// window, so the key is below win.W.
	sc.xCount = grow(sc.xCount, win.W+1)
	clear(sc.xCount)
	for li := range sc.cells {
		sc.xCount[sc.cells[li].x-win.X+1]++
	}
	for k := 1; k < len(sc.xCount); k++ {
		sc.xCount[k] += sc.xCount[k-1]
	}
	sc.xOrder = grow(sc.xOrder, n)
	for li := range sc.cells {
		k := sc.cells[li].x - win.X
		sc.xOrder[sc.xCount[k]] = int32(li)
		sc.xCount[k]++
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

// fitsLocalSegs reports whether cell c lies inside the chosen local
// segment of every row it spans; c must lie inside the window.
func (r *Region) fitsLocalSegs(c *design.Cell) bool {
	cs := geom.Span{Lo: c.X, Hi: c.X + c.W}
	for h := 0; h < c.H; h++ {
		ls := &r.Segs[r.RelRow(c.Y+h)]
		if !ls.Valid || !ls.Span.Contains(cs) {
			return false
		}
	}
	return true
}

// epochSet is a set of cell IDs kept as stamps in a dense slice indexed
// by cell ID: a cell is in the set when its stamp equals the current
// epoch. Emptying the set is one increment; the slice is cleared only
// when the epoch wraps.
type epochSet struct {
	stamp []uint32
	epoch uint32
}

// reset empties the set and sizes it for every ID below n. The slice
// only grows, so a stamp left by an earlier epoch is always older than
// the new one.
func (s *epochSet) reset(n int) {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
}

func (s *epochSet) add(id design.CellID)      { s.stamp[id] = s.epoch }
func (s *epochSet) has(id design.CellID) bool { return s.stamp[id] == s.epoch }

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
func chooseLocalSeg(g *segment.Grid, d *design.Design, y int, winSpan geom.Span, nonLocal *epochSet, centerX, infl int) LocalSeg {
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
			if !nonLocal.has(id) {
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
// Without constraints it keeps a gap-free squeeze of its own: the
// gap-aware one alone made BenchmarkRegionExtraction slower
// (docs/CONSTRAINTS.md). TestSqueezesAgreeWithoutConstraints pins the two
// to each other.
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
