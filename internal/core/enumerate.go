package core

import (
	"cmp"
	"slices"
)

// event is one scanline event: an interval opening at its Lo or closing
// at its Hi.
type event struct {
	x    int
	open bool
	iv   *Interval
}

// enumerate implements the scanline insertion-point enumeration of §5.1.3.
//
// Every interval contributes two events (its Lo as an "open", its Hi as a
// "close"); events are processed in ascending x with opens before closes
// so zero-length intervals and shared cutlines are honoured. A set of
// queues Q[a][s] holds the currently open intervals from row s available
// to combine with intervals from row a. When an interval on row a opens:
//
//  1. if its left neighbor is a multi-row cell occupying rows S, the
//     intervals lying on the left side of that cell are dropped from
//     Q[a][s] for s ∈ S (they can no longer pair with row-a intervals,
//     Figure 8);
//  2. all insertion points involving the new interval are generated by
//     taking the product of Q[a][s] over the other rows s of each
//     candidate window (equation (2));
//  3. the interval is pushed onto Q[r][a] for every row r it may pair
//     with (|r−a| ≤ h_t−1).
//
// Because combinations are only formed when their last-opening member
// opens, each insertion point is produced exactly once. A final pairwise
// multi-row side check (validMultiRow) rejects the cross-side
// combinations that per-queue clearing alone cannot see (two queued
// intervals from different rows on opposite sides of a multi-row cell).
//
// The yielded *InsertionPoint and its interval list are scratch storage
// reused for the next yield: callbacks that retain one must clone it.
// yield returns false to abort enumeration early (used for the insertion
// point budget). allowRow filters the absolute bottom row of the target
// (power-rail alignment, constraint 4); it may be nil.
func (r *Region) enumerate(wt, ht int, allowRow func(absBottomRow int) bool, yield func(ip *InsertionPoint) bool) {
	sc := r.sc
	hW := len(r.Segs)
	if hW < ht {
		return
	}
	rows := r.buildIntervals(wt)

	sc.events = sc.events[:0]
	for rel := range rows {
		for i := range rows[rel] {
			iv := &rows[rel][i]
			sc.events = append(sc.events, event{iv.Lo, true, iv}, event{iv.Hi, false, iv})
		}
	}
	slices.SortFunc(sc.events, func(a, b event) int {
		if a.x != b.x {
			return cmp.Compare(a.x, b.x)
		}
		if a.open != b.open {
			if a.open {
				return -1 // opens first
			}
			return 1
		}
		// Deterministic order among equal events.
		if a.iv.RelRow != b.iv.RelRow {
			return cmp.Compare(a.iv.RelRow, b.iv.RelRow)
		}
		return cmp.Compare(a.iv.GapIdx, b.iv.GapIdx)
	})

	// queues[a*hW+s]: open intervals from row s, for pairing with row a.
	// Inner slices keep their capacity across enumerations; vacated slots
	// are always nil-ed so no stale *Interval outlives its slab epoch.
	sc.queues = growOuter(sc.queues, hW*hW)
	queues := sc.queues
	for i := range queues {
		queues[i] = queues[i][:0]
	}
	pairRange := func(a int) (int, int) {
		return max(0, a-ht+1), min(hW-1, a+ht-1)
	}

	combo := grow(sc.combo, ht)
	sc.combo = combo
	aborted := false

	// emit recursively fills combo from the queues for window [t, t+ht)
	// where row a is fixed to iv, then yields the insertion point.
	var emit func(t, s, a int, iv *Interval) bool
	emit = func(t, s, a int, iv *Interval) bool {
		if s == t+ht {
			lo, hi := combo[0].Lo, combo[0].Hi
			for _, cv := range combo[1:] {
				lo = max(lo, cv.Lo)
				hi = min(hi, cv.Hi)
			}
			if hi < lo {
				return true // no common cutline survives (defensive; rare)
			}
			sc.yieldIP = InsertionPoint{BottomRel: t, Intervals: combo, Lo: lo, Hi: hi}
			if !r.validMultiRow(&sc.yieldIP) {
				return true
			}
			return yield(&sc.yieldIP)
		}
		if s == a {
			combo[s-t] = iv
			return emit(t, s+1, a, iv)
		}
		for _, q := range queues[a*hW+s] {
			combo[s-t] = q
			if !emit(t, s+1, a, iv) {
				return false
			}
		}
		return true
	}

	for _, ev := range sc.events {
		iv := ev.iv
		a := iv.RelRow
		lo, hi := pairRange(a)
		if !ev.open {
			for rr := lo; rr <= hi; rr++ {
				if rr == a {
					continue
				}
				qi := rr*hW + a
				q := queues[qi]
				for i, e := range q {
					if e == iv {
						// Shift left in place and nil the vacated tail slot:
						// q aliases the queue's backing array, so the plain
						// append(q[:i], q[i+1:]...) idiom would leave a live
						// duplicate pointer past the new length.
						copy(q[i:], q[i+1:])
						q[len(q)-1] = nil
						queues[qi] = q[:len(q)-1]
						break
					}
				}
			}
			continue
		}
		if aborted {
			// The budget fired: nothing further is generated and queue
			// state no longer matters — the next enumeration resets it.
			break
		}
		// Step 1: multi-row clearing. The purge is sound only while Lo is
		// monotone in gap index along each row — true in the base model
		// (Lo = left xL + width), broken by class-dependent adjacency
		// gaps: a zero-gap pair can open LEFT of an earlier-indexed
		// gapped pair, so a left-side interval may still open after a
		// right-side one has purged its partners (the lower-bound fuzz
		// found exactly this). With gaps active the purge is skipped and
		// cross-side combinations fall to validMultiRow below instead.
		if iv.leftIdx >= 0 && sc.cons.MaxGap() == 0 {
			if lc := &sc.cells[iv.leftIdx]; lc.h > 1 {
				for h := 0; h < lc.h; h++ {
					s := r.RelRow(lc.y + h)
					if s == a || s < lo || s > hi {
						continue
					}
					qi := a*hW + s
					q := queues[qi]
					kept := q[:0]
					for _, e := range q {
						if r.sideOf(e, iv.leftIdx) == -1 {
							continue // left of the multi-row cell: drop
						}
						kept = append(kept, e)
					}
					for i := len(kept); i < len(q); i++ {
						q[i] = nil
					}
					queues[qi] = kept
				}
			}
		}
		// Step 2: generate insertion points involving iv.
		tLo := max(0, a-ht+1)
		tHi := min(hW-ht, a)
		for t := tLo; t <= tHi; t++ {
			if allowRow != nil && !allowRow(r.AbsRow(t)) {
				continue
			}
			if !emit(t, t, a, iv) {
				aborted = true
				break
			}
		}
		// Step 3: push iv for future pairings.
		for rr := lo; rr <= hi; rr++ {
			if rr != a {
				queues[rr*hW+a] = append(queues[rr*hW+a], iv)
			}
		}
	}
}

// EnumerateInsertionPoints exposes the scanline enumeration for tests and
// ablation benchmarks: it returns every valid insertion point for a target
// of the given width and height, with optional power-rail filtering. Each
// returned insertion point is cloned out of enumeration scratch, so the
// result stays valid across later enumerations over the same region —
// callers that only rank or count the points should use
// VisitInsertionPoints instead, which skips the per-point deep copies.
func (r *Region) EnumerateInsertionPoints(wt, ht int, allowRow func(absBottomRow int) bool) []*InsertionPoint {
	var out []*InsertionPoint
	r.enumerate(wt, ht, allowRow, func(ip *InsertionPoint) bool {
		out = append(out, ip.clone())
		return true
	})
	return out
}

// VisitInsertionPoints is the allocation-free companion of
// EnumerateInsertionPoints: it yields every valid insertion point in
// scanline order without cloning. The yielded *InsertionPoint and its
// interval list are scratch storage reused for the next yield — a callback
// that retains one must clone() it. yield returns false to stop early.
func (r *Region) VisitInsertionPoints(wt, ht int, allowRow func(absBottomRow int) bool, yield func(ip *InsertionPoint) bool) {
	r.enumerate(wt, ht, allowRow, yield)
}

// searchWindow is one candidate bottom row of the best-first search, with
// its admissible lower bound. row is the pure y-cost term; lb adds the
// target's constraint NarrowX distance (scratch.conLBx) when plugins are
// active. The sweep sorts and cuts on lb, but only row flows into
// searchOneWindow's subtree bound — xDist there already dominates the
// NarrowX distance (intervals are clamped to [conTLo, conTHi]), so adding
// conLBx again would double-count and break admissibility.
type searchWindow struct {
	t   int32
	lb  float64
	row float64
}

// searchBest enumerates insertion points best-first instead of in scanline
// order: candidate bottom rows are visited in increasing y-cost bound
// order (the sweep terminates once the row bound alone exceeds the
// incumbent), and within a window the per-row intervals are visited in
// increasing horizontal distance from the target, with whole subtrees cut
// as soon as the partial combination's admissible lower bound (y cost +
// distance from the target to the partial common span + mandatory push,
// see evaluate.go) exceeds the incumbent. Dominated intervals are thereby
// cut before they generate any insertion point, which is what makes the
// search evaluate a small fraction of the exhaustive candidate set.
//
// yield is called exactly like enumerate's callback (scratch-backed
// insertion point, return false to stop), but only for candidates whose
// lower bound does not exceed *incumbent by more than pruneSlack; the
// caller lowers *incumbent as evaluations complete. Because every skipped
// candidate provably costs more than the incumbent, the surviving minimum
// — under any enumeration-order-independent tie-break — is identical to
// the exhaustive sweep's (the equivalence property/fuzz suite enforces
// this). Prune activity lands in the scratch's stats.
func (r *Region) searchBest(wt, ht int, tx, ty float64, allowRow func(absBottomRow int) bool, incumbent *float64, yield func(ip *InsertionPoint) bool) {
	sc := r.sc
	hW := len(r.Segs)
	if hW < ht {
		return
	}
	rows := r.buildIntervals(wt)

	// Rank each row's intervals by (distance from tx, gap index). The
	// ranking is row-local, so it is shared by every window the row
	// participates in.
	sc.rowRank = growOuter(sc.rowRank, hW)
	for rel := range rows {
		rank := grow(sc.rowRank[rel], len(rows[rel]))
		for i := range rank {
			rank[i] = int32(i)
		}
		ivs := rows[rel]
		slices.SortFunc(rank, func(a, b int32) int {
			da, db := xDist(tx, ivs[a].Lo, ivs[a].Hi), xDist(tx, ivs[b].Lo, ivs[b].Hi)
			if da != db {
				return cmp.Compare(da, db)
			}
			return cmp.Compare(ivs[a].GapIdx, ivs[b].GapIdx)
		})
		sc.rowRank[rel] = rank
	}

	// Candidate windows in increasing (y-cost bound, row) order. Windows
	// with a row that offers no interval can never form a combination and
	// are dropped up front.
	sc.winOrder = sc.winOrder[:0]
	for t := 0; t+ht <= hW; t++ {
		if allowRow != nil && !allowRow(r.AbsRow(t)) {
			continue
		}
		feasible := true
		for s := t; s < t+ht; s++ {
			if len(rows[s]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		row := r.yCost(r.AbsRow(t), ty)
		lb := row
		if sc.conLBx > 0 {
			// Still slack-free: every evaluated cost is fl(horiz + yCost)
			// with horiz ≥ conLBx as floats (the |x−x'_t| term dominates the
			// NarrowX distance term-by-term under monotone rounding), so
			// cost ≥ fl(yCost + conLBx) = lb bit-for-bit.
			lb += sc.conLBx
		}
		sc.winOrder = append(sc.winOrder, searchWindow{t: int32(t), lb: lb, row: row})
	}
	slices.SortFunc(sc.winOrder, func(a, b searchWindow) int {
		if a.lb != b.lb {
			return cmp.Compare(a.lb, b.lb)
		}
		return cmp.Compare(a.t, b.t)
	})

	sc.mrSide = grow(sc.mrSide, len(sc.multiRow))
	for i := range sc.mrSide {
		sc.mrSide[i] = 0
	}
	sc.mrTouch = sc.mrTouch[:0]
	combo := grow(sc.combo, ht)
	sc.combo = combo

	for wi, w := range sc.winOrder {
		// The row bound is exact in floating point (see evaluate.go), so
		// the sweep cut needs no slack: every remaining window's cheapest
		// candidate already costs more than the incumbent.
		if w.lb > *incumbent {
			sc.stats.WindowsPruned += int64(len(sc.winOrder) - wi)
			return
		}
		if !r.searchOneWindow(int(w.t), wt, ht, tx, w.row, incumbent, yield) {
			return
		}
	}
}

// searchOneWindow runs the pruned depth-first product over the window's
// rows [t, t+ht). It returns false when yield asked to stop the whole
// search.
func (r *Region) searchOneWindow(t, wt, ht int, tx float64, rowLB float64, incumbent *float64, yield func(ip *InsertionPoint) bool) bool {
	sc := r.sc
	rows := sc.rowIvs
	combo := sc.combo

	var rec func(s, lo, hi, push int) bool
	rec = func(s, lo, hi, push int) bool {
		if s == t+ht {
			sc.yieldIP = InsertionPoint{BottomRel: t, Intervals: combo, Lo: lo, Hi: hi}
			return yield(&sc.yieldIP)
		}
		ivs := rows[s]
		rank := sc.rowRank[s]
		last := s+1 == t+ht
		for si, ri := range rank {
			iv := &ivs[ri]
			// Siblings are distance-ordered and the candidate span only
			// shrinks below this node, so once the push-free bound beats
			// the incumbent every later sibling is dominated too.
			if rowLB+xDist(tx, iv.Lo, iv.Hi)+float64(push) > *incumbent+pruneSlack {
				sc.stats.SearchNodesCut += int64(len(rank) - si)
				break
			}
			nlo, nhi := max(lo, iv.Lo), min(hi, iv.Hi)
			if nhi < nlo {
				continue // no common cutline with the partial combination
			}
			npush := max(push, iv.mandatoryPush())
			if rowLB+xDist(tx, nlo, nhi)+float64(npush) > *incumbent+pruneSlack {
				if last {
					sc.stats.CandidatesPruned++ // a fully-formed candidate skipped evaluation
				} else {
					sc.stats.SearchNodesCut++
				}
				continue
			}
			// Incremental multi-row side consistency (§5.1.2): record the
			// side this interval pins for each spanned multi-row cell and
			// reject as soon as two rows disagree.
			mark := len(sc.mrTouch)
			ok := true
			for mi, m := range sc.multiRow {
				sd := int8(r.sideOf(iv, m))
				if sd == 0 {
					continue
				}
				if sc.mrSide[mi] == 0 {
					sc.mrSide[mi] = sd
					sc.mrTouch = append(sc.mrTouch, int32(mi))
				} else if sc.mrSide[mi] != sd {
					ok = false
					break
				}
			}
			stop := false
			if ok {
				combo[s-t] = iv
				stop = !rec(s+1, nlo, nhi, npush)
			}
			for len(sc.mrTouch) > mark {
				last := len(sc.mrTouch) - 1
				sc.mrSide[sc.mrTouch[last]] = 0
				sc.mrTouch = sc.mrTouch[:last]
			}
			if stop {
				return false
			}
		}
		return true
	}
	const span = int(^uint32(0) >> 1) // wide sentinel bounds for the root
	return rec(t, -span, span, 0)
}
