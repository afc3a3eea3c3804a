package core

import (
	"fmt"
	"slices"

	"mrlegal/internal/design"
)

// Realize applies Algorithm 2 (§5.3): it places the target cell at
// (x, bottom row of ip) and resolves overlaps by pushing cells away from
// the target — left neighbors leftward, right neighbors rightward — with
// pushes propagating across rows through multi-row cells. The insertion
// point must have been produced by the enumeration and x must lie in
// [ip.Lo, ip.Hi], which together guarantee the pushes stay inside the
// local segments. The insertion point is consumed through its row and
// GapIdx coordinates only, so clones built against an equivalent region
// remain usable.
//
// On success it commits all position changes to the design and the
// segment grid, places the target, and returns the cells that moved (in
// deterministic push-discovery order). The returned slice is the
// scratch's buffer, valid until the next realization into that scratch.
func (r *Region) Realize(ip *InsertionPoint, x int, target design.CellID) ([]design.CellID, error) {
	if x < ip.Lo || x > ip.Hi {
		return nil, fmt.Errorf("core: realize x=%d outside insertion point range [%d,%d]", x, ip.Lo, ip.Hi)
	}
	sc := r.sc
	d := r.D
	tc := d.Cell(target)
	if tc.Placed {
		return nil, fmt.Errorf("core: realize target cell %d already placed", target)
	}
	yBot := ip.BottomRow(r)

	// Register the target as a temporary local cell. It is appended past
	// the sorted ID prefix (localIdx scans the tail linearly) and inserted
	// into the row lists at each interval's gap; the row position tables of
	// the affected rows are recomputed to cover it.
	tIdx := int32(len(sc.cells))
	sc.ids = append(sc.ids, target)
	sc.cells = append(sc.cells, localCell{id: target, x: x, y: yBot, w: tc.W, h: tc.H, cls: sc.conTCls})
	n := len(sc.cells)
	refreshRow := func(rel int) {
		idxs := sc.rowIdx[rel]
		lst := slices.Grow(sc.rowLists[rel][:0], len(idxs))
		for _, li := range idxs {
			lst = append(lst, sc.ids[li])
		}
		sc.rowLists[rel] = lst
		r.Segs[rel].Cells = lst
		pos := sc.rowPos[rel]
		if cap(pos) < n {
			pos = make([]int32, n)
		}
		pos = pos[:n]
		fill32(pos, -1)
		for p, li := range idxs {
			pos[li] = int32(p)
		}
		sc.rowPos[rel] = pos
	}
	for k := range ip.Intervals {
		rel := ip.BottomRel + k
		g := ip.Intervals[k].GapIdx
		idxs := slices.Insert(sc.rowIdx[rel], g, tIdx)
		sc.rowIdx[rel] = idxs
		refreshRow(rel)
	}
	restore := func() {
		sc.ids = sc.ids[:tIdx]
		sc.cells = sc.cells[:tIdx]
		n = len(sc.cells)
		for k := range ip.Intervals {
			rel := ip.BottomRel + k
			g := ip.Intervals[k].GapIdx
			sc.rowIdx[rel] = slices.Delete(sc.rowIdx[rel], g, g+1)
			refreshRow(rel)
		}
	}

	// A cell can be re-pushed through different rows, so re-enqueueing is
	// allowed; the budget bounds the (theoretically impossible) runaway.
	budget := (n + 2) * 8 * len(r.Segs)
	mark := grow(sc.movedMark, n)
	for i := range mark {
		mark[i] = false
	}
	sc.movedMark = mark
	movedList := sc.movedList[:0]

	// Pushes honor the constraint plugins' pairwise gaps: a neighbor is
	// displaced until it clears the pusher by Gap(left, right) sites, not
	// merely until the overlap vanishes. Without constraints every gap is
	// 0, the paper's abutment rule.
	cons := sc.cons

	// Left pass.
	queue := append(sc.queue[:0], tIdx)
	for qi := 0; qi < len(queue); qi++ {
		if budget--; budget < 0 {
			sc.queue, sc.movedList = queue, movedList
			restore()
			return nil, fmt.Errorf("core: realize left push did not converge (insertion point inconsistent)")
		}
		u := &sc.cells[queue[qi]]
		for h := 0; h < u.h; h++ {
			rel := r.RelRow(u.y + h)
			pos := sc.rowPos[rel][queue[qi]]
			if pos <= 0 {
				continue
			}
			vi := sc.rowIdx[rel][pos-1]
			v := &sc.cells[vi]
			g := cons.Gap(v.cls, u.cls)
			if v.x+v.w+g > u.x {
				v.x = u.x - g - v.w
				if !mark[vi] {
					mark[vi] = true
					movedList = append(movedList, vi)
				}
				queue = append(queue, vi)
			}
		}
	}
	// Right pass.
	queue = append(queue[:0], tIdx)
	for qi := 0; qi < len(queue); qi++ {
		if budget--; budget < 0 {
			sc.queue, sc.movedList = queue, movedList
			restore()
			return nil, fmt.Errorf("core: realize right push did not converge (insertion point inconsistent)")
		}
		u := &sc.cells[queue[qi]]
		for h := 0; h < u.h; h++ {
			rel := r.RelRow(u.y + h)
			idxs := sc.rowIdx[rel]
			pos := sc.rowPos[rel][queue[qi]]
			if pos < 0 || int(pos)+1 >= len(idxs) {
				continue
			}
			vi := idxs[pos+1]
			v := &sc.cells[vi]
			g := cons.Gap(u.cls, v.cls)
			if v.x < u.x+u.w+g {
				v.x = u.x + u.w + g
				if !mark[vi] {
					mark[vi] = true
					movedList = append(movedList, vi)
				}
				queue = append(queue, vi)
			}
		}
	}
	sc.queue, sc.movedList = queue, movedList

	// Validate that pushes stayed inside the local segments (guaranteed
	// by construction of Lo/Hi; cheap to confirm).
	for _, li := range movedList {
		lc := &sc.cells[li]
		if lc.x < lc.xL || lc.x > lc.xR {
			restore()
			return nil, fmt.Errorf("core: realize pushed cell %d to x=%d outside its feasible range [%d,%d]", lc.id, lc.x, lc.xL, lc.xR)
		}
	}

	// Commit to the design and segment grid. Order within each segment
	// list is preserved by the push passes, so ShiftX suffices. Every cell
	// is announced to the undo log before its first mutation, so a failure
	// (or injected panic) anywhere below rolls back cleanly.
	out := sc.moved[:0]
	for _, li := range movedList {
		if li == tIdx {
			continue
		}
		lc := &sc.cells[li]
		r.touch(lc.id)
		r.G.ShiftX(lc.id, lc.x)
		out = append(out, lc.id)
	}
	sc.moved = out
	r.touch(target)
	d.Place(target, x, yBot)
	if r.l != nil && r.l.Cfg.Faults != nil {
		r.l.Cfg.Faults.OnRealize(target)
	}
	if err := r.insertCell(target); err != nil {
		return nil, fmt.Errorf("core: realize commit: %w", err)
	}
	return out, nil
}
