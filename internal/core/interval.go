package core

import (
	"mrlegal/internal/design"
)

// Interval is an insertion interval I^r_{i,j} (§5.1.1): a gap on one local
// segment together with the leftmost and rightmost x positions the target
// cell may take inside it. Lo and Hi are both inclusive; Lo == Hi means
// the target position is pinned (Figure 7e). Intervals with Hi < Lo are
// never constructed (Figure 7f, discarded).
type Interval struct {
	RelRow int // window-relative row of the segment the gap lies on

	// GapIdx identifies the gap: the target is inserted between cells
	// GapIdx-1 and GapIdx of the row's x-ordered local cells
	// (Region.RowCells). GapIdx 0 is the gap at the left segment boundary;
	// GapIdx == len(RowCells) is the gap at the right boundary.
	GapIdx int

	// Left and Right are the neighboring cells (design.NoCell at a
	// segment boundary).
	Left, Right design.CellID

	// leftIdx and rightIdx are the local indices of Left/Right within the
	// region the interval was built for (-1 at a segment boundary). Only
	// valid against that region; the realization deliberately works from
	// GapIdx alone so insertion points survive region rebuilds.
	leftIdx, rightIdx int32

	Lo, Hi int // inclusive bounds for the target cell's x in this gap

	// free is the gap's free width in the *current* placement (right
	// neighbor's x minus left neighbor's right edge, segment boundaries
	// included). A target wider than free forces at least need−free sites
	// of neighbor displacement, which is the mandatory-push term of the
	// best-first search's admissible lower bound (docs/PERFORMANCE.md §5).
	free int

	// need is the width the target effectively consumes in this gap: wt
	// plus the required constraint gaps against the left and right
	// neighbors (constraint.Set.Gap). Equal to wt without constraints.
	need int
}

// Len returns Hi - Lo (≥ 0 for constructed intervals).
func (iv *Interval) Len() int { return iv.Hi - iv.Lo }

// buildIntervals enumerates every non-negative insertion interval in the
// region for a target cell of width wt, grouped by window-relative row.
// All intervals live in one scratch slab; the returned per-row views are
// invalidated by the next build into the same scratch.
//
// Per §5.1.1, for a gap between cells i and j on segment r:
//
//	lo = xL_i + w_i   (or the segment start when the gap is at the boundary)
//	hi = xR_j - w_t   (or segment end − w_t at the right boundary)
func (r *Region) buildIntervals(wt int) [][]Interval {
	sc := r.sc
	sc.intervals = sc.intervals[:0]
	starts := grow(sc.cursor, len(r.Segs)+1)
	sc.cursor = starts
	for rel := range r.Segs {
		starts[rel] = len(sc.intervals)
		ls := &r.Segs[rel]
		if !ls.Valid || ls.Span.Len() < wt {
			continue
		}
		idxs := sc.rowIdx[rel]
		n := len(idxs)
		cons, tcls := sc.cons, sc.conTCls
		for k := 0; k <= n; k++ {
			iv := Interval{RelRow: rel, GapIdx: k,
				Left: design.NoCell, Right: design.NoCell, leftIdx: -1, rightIdx: -1}
			gapLo, gapHi := ls.Span.Lo, ls.Span.Hi
			gapL, gapR := 0, 0
			if k == 0 {
				iv.Lo = ls.Span.Lo
			} else {
				lc := &sc.cells[idxs[k-1]]
				iv.Left, iv.leftIdx = lc.id, idxs[k-1]
				gapL = cons.Gap(lc.cls, tcls)
				iv.Lo = lc.xL + lc.w + gapL
				gapLo = lc.x + lc.w
			}
			if k == n {
				iv.Hi = ls.Span.Hi - wt
			} else {
				rc := &sc.cells[idxs[k]]
				iv.Right, iv.rightIdx = rc.id, idxs[k]
				gapR = cons.Gap(tcls, rc.cls)
				iv.Hi = rc.xR - wt - gapR
				gapHi = rc.x
			}
			iv.free = gapHi - gapLo
			iv.need = wt + gapL + gapR
			if iv.Hi < iv.Lo {
				continue
			}
			// The target's own NarrowX clamp, open without constraints.
			// This single clamp point covers both search modes —
			// everything downstream (scanline enumeration and the
			// best-first window walk) consumes these intervals.
			lo, hi := max(iv.Lo, sc.conTLo), min(iv.Hi, sc.conTHi)
			if hi < lo {
				sc.stats.ConstraintFiltered++
				continue
			}
			iv.Lo, iv.Hi = lo, hi
			sc.intervals = append(sc.intervals, iv)
		}
	}
	starts[len(r.Segs)] = len(sc.intervals)
	// Views (and any *Interval) are taken only now that the slab is final.
	sc.rowIvs = growOuter(sc.rowIvs, len(r.Segs))
	for rel := range r.Segs {
		sc.rowIvs[rel] = sc.intervals[starts[rel]:starts[rel+1]]
	}
	return sc.rowIvs
}

// sideOf reports whether the interval sits left (-1) or right (+1) of the
// multi-row local cell with local index mIdx on the interval's row, or 0
// when that cell does not occupy the row.
func (r *Region) sideOf(iv *Interval, mIdx int32) int {
	return sideAt(&r.sc.cells[mIdx], r.sc.cellPos, r.AbsRow(iv.RelRow), iv.GapIdx)
}

// sideAt is sideOf for gap index gap on absolute row y and local cell lc,
// whose row positions cellPos holds; a loop over cells hoists cellPos and
// y. Gap index k ≤ pos(lc) is left of lc; k > pos(lc) is right.
func sideAt(lc *localCell, cellPos []int32, y, gap int) int {
	k := y - lc.y
	if k < 0 || k >= lc.h {
		return 0
	}
	if gap <= int(cellPos[int(lc.pos)+k]) {
		return -1
	}
	return +1
}

// InsertionPoint is a combination of h_t insertion intervals from h_t
// vertically consecutive segments with a common feasible x range (§5.1.2).
type InsertionPoint struct {
	BottomRel int         // window-relative row of the target cell's bottom
	Intervals []*Interval // Intervals[k] lies on row BottomRel+k
	Lo, Hi    int         // common inclusive x range (∩ of interval ranges)
}

// BottomRow returns the absolute row index of the target's bottom edge.
func (ip *InsertionPoint) BottomRow(r *Region) int { return r.AbsRow(ip.BottomRel) }

// clone deep-copies the insertion point out of enumeration scratch so it
// stays valid across further enumerations and region rebuilds.
func (ip *InsertionPoint) clone() *InsertionPoint {
	c := *ip
	ivs := make([]Interval, len(ip.Intervals))
	c.Intervals = make([]*Interval, len(ip.Intervals))
	for i, iv := range ip.Intervals {
		ivs[i] = *iv
		c.Intervals[i] = &ivs[i]
	}
	return &c
}

// validMultiRow checks the §5.1.2 constraint that intervals on opposite
// sides of a multi-row local cell never form one insertion point: for
// every multi-row cell spanning several of the insertion point's rows, all
// its spanned intervals must lie on the same side.
func (r *Region) validMultiRow(ip *InsertionPoint) bool {
	for _, mi := range r.sc.multiRow {
		side := 0
		for _, iv := range ip.Intervals {
			s := r.sideOf(iv, mi)
			if s == 0 {
				continue
			}
			if side == 0 {
				side = s
			} else if side != s {
				return false
			}
		}
	}
	return true
}
