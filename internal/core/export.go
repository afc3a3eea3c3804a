package core

import (
	"mrlegal/internal/design"
	"mrlegal/internal/geom"
)

// This file exposes the region internals that external local solvers (the
// ILP baseline, ablation benchmarks, tests) need, without widening the
// mutable surface of the core algorithm.

// LocalCellInfo is a read-only snapshot of one local cell's state.
type LocalCellInfo struct {
	ID     design.CellID
	X, Y   int
	W, H   int
	XL, XR int // leftmost/rightmost placement positions (§5.1.1)
}

// Info returns the snapshot for a local cell; ok is false when the cell is
// not local to the region.
func (r *Region) Info(id design.CellID) (LocalCellInfo, bool) {
	lc := r.local(id)
	if lc == nil {
		return LocalCellInfo{}, false
	}
	return LocalCellInfo{ID: lc.id, X: lc.x, Y: lc.y, W: lc.w, H: lc.h, XL: lc.xL, XR: lc.xR}, true
}

// IntervalAt returns the insertion interval for the gap gapIdx on
// window-relative row rel for a target of width wt, with bounds from the
// leftmost/rightmost placements: the interval the enumeration builds,
// constraint gaps and the armed target's NarrowX clamp included. ok is
// false when the row has no local segment, the gap index is out of range,
// or the interval is empty. It rebuilds the region's intervals in its
// scratch, so it must not run while an enumeration is live. A lookup is
// not a placement option, so intervals the clamp removes leave
// Stats.ConstraintFiltered as it was.
func (r *Region) IntervalAt(rel, gapIdx, wt int) (Interval, bool) {
	if rel < 0 || rel >= len(r.Segs) {
		return Interval{}, false
	}
	filtered := r.sc.stats.ConstraintFiltered
	ivs := r.buildIntervals(wt)[rel]
	r.sc.stats.ConstraintFiltered = filtered
	for _, iv := range ivs {
		if iv.GapIdx == gapIdx {
			return iv, true
		}
	}
	return Interval{}, false
}

// BuildInsertionPoint assembles an insertion point from per-row gap
// indices (gaps[k] is the gap on window-relative row bottomRel+k) for a
// target of width wt. ok is false when any interval is invalid, the
// common range is empty, or the combination crosses a multi-row cell.
func (r *Region) BuildInsertionPoint(bottomRel int, gaps []int, wt int) (*InsertionPoint, bool) {
	ip := &InsertionPoint{BottomRel: bottomRel}
	for k, g := range gaps {
		iv, ok := r.IntervalAt(bottomRel+k, g, wt)
		if !ok {
			return nil, false
		}
		ivCopy := iv
		ip.Intervals = append(ip.Intervals, &ivCopy)
		if k == 0 {
			ip.Lo, ip.Hi = iv.Lo, iv.Hi
		} else {
			ip.Lo = max(ip.Lo, iv.Lo)
			ip.Hi = min(ip.Hi, iv.Hi)
		}
	}
	if ip.Hi < ip.Lo || !r.validMultiRow(ip) {
		return nil, false
	}
	return ip, true
}

// EvaluateExact exposes the exact insertion-point evaluation (§5.2,
// full critical-position propagation) for external solvers and ablation
// benchmarks.
func (r *Region) EvaluateExact(ip *InsertionPoint, wt int, tx, ty float64) Evaluation {
	return r.evaluateExact(ip, wt, tx, ty)
}

// EvaluateApprox exposes the paper's neighbor-only approximate evaluation
// (§5.2).
func (r *Region) EvaluateApprox(ip *InsertionPoint, wt int, tx, ty float64) Evaluation {
	return r.evaluateApprox(ip, wt, tx, ty)
}

// Window returns the clipped window rectangle of the region.
func (r *Region) Window() geom.Rect { return r.Win }

// RowCells returns the IDs of the local cells on window-relative row rel,
// ordered by x, in a new slice: the cells between which the gaps of the
// row's insertion intervals lie.
func (r *Region) RowCells(rel int) []design.CellID {
	idxs := r.sc.rowIdx[rel]
	ids := make([]design.CellID, len(idxs))
	for p, li := range idxs {
		ids[p] = r.sc.ids[li]
	}
	return ids
}
