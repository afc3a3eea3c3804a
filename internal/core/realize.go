package core

import (
	"fmt"

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

	// A cell can be re-pushed through different rows, so re-enqueueing is
	// allowed; the budget bounds the (theoretically impossible) runaway.
	n := len(sc.cells)
	budget := (n + 2) * 8 * len(r.Segs)
	mark := grow(sc.movedMark, n)
	clear(mark)
	sc.movedMark = mark
	movedList := sc.movedList[:0]
	queue := sc.queue[:0]

	// Pushes honor the constraint plugins' pairwise gaps: a neighbor is
	// displaced until it clears the pusher by Gap(left, right) sites, not
	// merely until the overlap vanishes. Without constraints every gap is
	// 0, the paper's abutment rule. A pushed cell is queued to push its
	// own neighbors in turn.
	cons, tcls := sc.cons, sc.conTCls
	moved := func(vi int32) {
		if !mark[vi] {
			mark[vi] = true
			movedList = append(movedList, vi)
		}
		queue = append(queue, vi)
	}
	// pushLeft moves local cell vi left of a pusher of class pcls whose
	// left edge is at px; pushRight moves it right of one whose right
	// edge is at px.
	pushLeft := func(vi int32, px int, pcls uint8) {
		v := &sc.cells[vi]
		if g := cons.Gap(v.cls, pcls); v.x+v.w+g > px {
			v.x = px - g - v.w
			moved(vi)
		}
	}
	pushRight := func(vi int32, px int, pcls uint8) {
		v := &sc.cells[vi]
		if g := cons.Gap(pcls, v.cls); v.x < px+g {
			v.x = px + g
			moved(vi)
		}
	}

	// The target is not a local cell: its gap neighbors on each of its
	// rows seed the passes. A valid insertion point keeps every cell a
	// pass reaches on the target's side of each target row
	// (validMultiRow), so no pushed cell ever meets the target in a row.
	// Left pass.
	for k, iv := range ip.Intervals {
		if iv.GapIdx > 0 {
			pushLeft(sc.rowIdx[ip.BottomRel+k][iv.GapIdx-1], x, tcls)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		if budget--; budget < 0 {
			sc.queue, sc.movedList = queue, movedList
			return nil, fmt.Errorf("core: realize left push did not converge (insertion point inconsistent)")
		}
		u := &sc.cells[queue[qi]]
		for h := 0; h < u.h; h++ {
			if pos := sc.cellPos[int(u.pos)+h]; pos > 0 {
				pushLeft(sc.rowIdx[r.RelRow(u.y+h)][pos-1], u.x, u.cls)
			}
		}
	}
	// Right pass.
	queue = queue[:0]
	for k, iv := range ip.Intervals {
		if idxs := sc.rowIdx[ip.BottomRel+k]; iv.GapIdx < len(idxs) {
			pushRight(idxs[iv.GapIdx], x+tc.W, tcls)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		if budget--; budget < 0 {
			sc.queue, sc.movedList = queue, movedList
			return nil, fmt.Errorf("core: realize right push did not converge (insertion point inconsistent)")
		}
		u := &sc.cells[queue[qi]]
		for h := 0; h < u.h; h++ {
			idxs := sc.rowIdx[r.RelRow(u.y+h)]
			if pos := int(sc.cellPos[int(u.pos)+h]); pos+1 < len(idxs) {
				pushRight(idxs[pos+1], u.x+u.w, u.cls)
			}
		}
	}
	sc.queue, sc.movedList = queue, movedList

	// Validate that pushes stayed inside the local segments (guaranteed
	// by construction of Lo/Hi; cheap to confirm).
	for _, li := range movedList {
		lc := &sc.cells[li]
		if lc.x < lc.xL || lc.x > lc.xR {
			return nil, fmt.Errorf("core: realize pushed cell %d to x=%d outside its feasible range [%d,%d]", lc.id, lc.x, lc.xL, lc.xR)
		}
	}

	// Commit to the design and segment grid. Order within each segment
	// list is preserved by the push passes, so ShiftX suffices. Every cell
	// is announced to the undo log before its first mutation, so a failure
	// (or injected panic) anywhere below rolls back cleanly.
	out := sc.moved[:0]
	for _, li := range movedList {
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
