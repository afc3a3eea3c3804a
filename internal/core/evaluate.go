package core

import (
	"math"
)

// Evaluation is the outcome of scoring one insertion point: the optimal
// site-aligned x for the target cell and the estimated total displacement
// cost in site-width units (the paper's reporting unit).
type Evaluation struct {
	X    int
	Cost float64
	OK   bool
}

// pwlCost is the convex piecewise-linear displacement function
//
//	f(x) = Σ_p∈lpts max(0, p−x) + Σ_p∈rpts max(0, x−p)
//
// summed in list order. lpts are the critical positions of cells left of
// the target (their displacement grows as x decreases past them), rpts
// those of cells on the right; the target's own desired position appears
// in both lists, giving the |x − x'_t| term of equation (3).
func pwlCost(lpts, rpts []float64, x int) float64 {
	fx := float64(x)
	var s float64
	for _, p := range lpts {
		if p > fx {
			s += p - fx
		}
	}
	for _, p := range rpts {
		if fx > p {
			s += fx - p
		}
	}
	return s
}

// pwlMin minimizes pwlCost over the integers x ∈ [lo, hi] and returns the
// (leftmost) minimizer and its value: the weighted-median computation of
// §5.2.
func pwlMin(lpts, rpts []float64, lo, hi int) (int, float64) {
	// Binary search on the slope: f is convex, so f(m) <= f(m+1) implies
	// the (leftmost) minimum lies in [lo, m].
	a, b := lo, hi
	for a < b {
		m := a + (b-a)/2
		if pwlCost(lpts, rpts, m) <= pwlCost(lpts, rpts, m+1) {
			b = m
		} else {
			a = m + 1
		}
	}
	return a, pwlCost(lpts, rpts, a)
}

// yCost returns the target's vertical displacement contribution in
// site-width units for placing its bottom edge on absolute row y when the
// desired (input) row is ty.
func (r *Region) yCost(y int, ty float64) float64 {
	dy := float64(y) - ty
	if dy < 0 {
		dy = -dy
	}
	return dy * float64(r.D.SiteH) / float64(r.D.SiteW)
}

// Admissible lower bounds for the best-first insertion-point search
// (docs/PERFORMANCE.md §5). Every cost both evaluators report has the form
//
//	cost(ip, x) = Σ left terms + Σ right terms + |x − x'_t| + yCost(row)
//
// with every summand non-negative, so partial sums of summand lower
// bounds never exceed the evaluated cost:
//
//   - the row bound is yCost alone. It is exact in floating point too:
//     both evaluators add the identical yCost value to a non-negative
//     horizontal part, and float addition is monotone, so cost ≥ yCost
//     holds bit-for-bit and row pruning needs no slack.
//   - xDist lower-bounds the |x − x'_t| term: the evaluator picks
//     x ∈ [lo, hi], so |x − x'_t| ≥ dist(x'_t, [lo, hi]).
//   - mandatory push: a gap between left neighbor i and right neighbor j
//     (current free width f = x_j − (x_i+w_i), Interval.free) contributes
//     max(0, a_i−x) + max(0, x−b_j) ≥ a_i − b_j ≥ need − f for any x,
//     because a_i ≥ x_i+w_i+gap_i and b_j ≤ x_j−w_t−gap_j in both the
//     approximate and the exact critical-position sets, and Interval.need
//     = w_t + gap_i + gap_j (= w_t when no constraint plugins are active).
//     Rows contribute these via *distinct* (deduplicated) cells, so the
//     max over the combination's rows — not the sum, which could
//     double-count a shared multi-row neighbor — is a valid bound.
//   - with constraint plugins active, scratch.conLBx adds the target's own
//     horizontal NarrowX distance dist(x'_t, [conTLo, conTHi]) ≤ |x − x'_t|
//     to the *window* bound only (never the per-candidate subtree bound,
//     where xDist already covers the same term).
//
// The composed candidate bound re-associates float additions relative to
// the evaluator's left-to-right summation, so candidate-level pruning
// keeps pruneSlack of headroom; a candidate is only skipped when its
// bound exceeds the incumbent by more than the slack.

// pruneSlack absorbs floating-point re-association between the composed
// lower bound (yCost + xDist + push) and the evaluators' term-by-term
// summation. Coordinates are < 1e7 sites and candidate sums have tens of
// terms, so accumulated rounding is far below 1e-6 site widths.
const pruneSlack = 1e-6

// xDist is the distance from the desired position tx to the integer
// interval [lo, hi] (0 when tx lies inside).
func xDist(tx float64, lo, hi int) float64 {
	if flo := float64(lo); tx < flo {
		return flo - tx
	}
	if fhi := float64(hi); tx > fhi {
		return tx - fhi
	}
	return 0
}

// mandatoryPush is the interval's unavoidable neighbor displacement: the
// target effectively needs Interval.need sites (its width plus required
// constraint gaps) where only Interval.free are currently free.
func (iv *Interval) mandatoryPush() int {
	if p := iv.need - iv.free; p > 0 {
		return p
	}
	return 0
}

// evaluateApprox scores an insertion point with the paper's O(h_t)
// approximation (§5.2): only the ≤ 2·h_t direct neighboring cells
// contribute critical positions. For a left neighbor i the critical
// position is x_i + w_i; for a right neighbor j it is x_j − w_t.
func (r *Region) evaluateApprox(ip *InsertionPoint, wt int, tx, ty float64) Evaluation {
	sc := r.sc
	cons, tcls := sc.cons, sc.conTCls
	lpts, rpts := sc.lpts[:0], sc.rpts[:0]
	var seenL, seenR [8]int32 // h_t is tiny; fixed-size dedup
	nl, nr := 0, 0
	for _, iv := range ip.Intervals {
		if iv.leftIdx >= 0 && !contains32(seenL[:nl], iv.leftIdx) {
			if nl < len(seenL) {
				seenL[nl] = iv.leftIdx
				nl++
			}
			lc := &sc.cells[iv.leftIdx]
			lpts = append(lpts, float64(lc.x+lc.w+cons.Gap(lc.cls, tcls)))
		}
		if iv.rightIdx >= 0 && !contains32(seenR[:nr], iv.rightIdx) {
			if nr < len(seenR) {
				seenR[nr] = iv.rightIdx
				nr++
			}
			rc := &sc.cells[iv.rightIdx]
			rpts = append(rpts, float64(rc.x-wt-cons.Gap(tcls, rc.cls)))
		}
	}
	lpts = append(lpts, tx)
	rpts = append(rpts, tx)
	sc.lpts, sc.rpts = lpts, rpts
	x, cost := pwlMin(lpts, rpts, ip.Lo, ip.Hi)
	return Evaluation{X: x, Cost: cost + r.yCost(ip.BottomRow(r), ty), OK: true}
}

func contains32(s []int32, v int32) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}

// exactClearances computes the minimal clearances (§5.2 critical-position
// reconstruction) between the target and every transitively pushed cell
// into the dense scratch tables sc.kL/sc.kR, keyed by local index with -1
// meaning unreached: kL[u] is how far above x_u the target's left edge
// must stay to leave u unmoved (a_u = x_u + kL[u]); kR[u] the symmetric
// right-side value (b_u = x_u − kR[u]). Propagation:
//
//	kL_u = w_u + gap(u, z) + max{ kL_z : z immediate right neighbor of u
//	            in the pushed set }    (kL_i = w_i + gap(i, t) for gap
//	                                    neighbors)
//	kR_u = max{ kR_z + w_z + gap(z, u) : z immediate left neighbor in the
//	            pushed set }           (kR_j = w_t + gap(t, j) for gap
//	                                    neighbors)
//
// where gap(a, b) is the constraint plugins' required spacing between an
// x-adjacent pair (a left of b); zero when no plugins are active.
//
// Propagation crosses rows through multi-row cells, which is exactly what
// makes the multi-row problem harder than the single-row one. Cells are
// visited in x order (sc.xOrder) so every dependency is resolved before
// use, and in a deterministic tie-break order so float summation in the
// downstream evaluation is reproducible.
func (r *Region) exactClearances(ip *InsertionPoint, wt int) {
	sc := r.sc
	n := len(sc.cells)
	sc.kL = grow(sc.kL, n)
	sc.kR = grow(sc.kR, n)
	fill32(sc.kL, -1)
	fill32(sc.kR, -1)
	cons, tcls := sc.cons, sc.conTCls
	for _, iv := range ip.Intervals {
		if iv.leftIdx >= 0 {
			lc := &sc.cells[iv.leftIdx]
			if w := int32(lc.w + cons.Gap(lc.cls, tcls)); w > sc.kL[iv.leftIdx] {
				sc.kL[iv.leftIdx] = w
			}
		}
		if iv.rightIdx >= 0 {
			if w := int32(wt + cons.Gap(tcls, sc.cells[iv.rightIdx].cls)); w > sc.kR[iv.rightIdx] {
				sc.kR[iv.rightIdx] = w
			}
		}
	}
	// Left side: decreasing x; relax immediate left neighbors.
	for i := n - 1; i >= 0; i-- {
		ui := sc.xOrder[i]
		ku := sc.kL[ui]
		if ku < 0 {
			continue
		}
		u := &sc.cells[ui]
		for h := 0; h < u.h; h++ {
			pos := sc.cellPos[int(u.pos)+h]
			if pos == 0 {
				continue
			}
			vi := sc.rowIdx[r.RelRow(u.y+h)][pos-1]
			v := &sc.cells[vi]
			if kv := ku + int32(v.w+cons.Gap(v.cls, u.cls)); kv > sc.kL[vi] {
				sc.kL[vi] = kv
			}
		}
	}
	// Right side: increasing x; relax immediate right neighbors.
	for i := 0; i < n; i++ {
		ui := sc.xOrder[i]
		ku := sc.kR[ui]
		if ku < 0 {
			continue
		}
		u := &sc.cells[ui]
		for h := 0; h < u.h; h++ {
			idxs := sc.rowIdx[r.RelRow(u.y+h)]
			pos := sc.cellPos[int(u.pos)+h]
			if int(pos)+1 >= len(idxs) {
				continue
			}
			vi := idxs[pos+1]
			if kv := ku + int32(u.w+cons.Gap(u.cls, sc.cells[vi].cls)); kv > sc.kR[vi] {
				sc.kR[vi] = kv
			}
		}
	}
}

// exactPoints converts the clearance tables exactClearances fills for ip
// into critical-position multisets in the reused scratch lists, iterating
// in local-index (ascending ID) order for reproducible float summation,
// and appends the target's desired x to both. ok is false when some cell
// is reachable from both sides of the target, which marks the insertion
// point geometrically inconsistent.
func (r *Region) exactPoints(ip *InsertionPoint, wt int, tx float64) (lpts, rpts []float64, ok bool) {
	r.exactClearances(ip, wt)
	sc := r.sc
	for i := range sc.cells {
		if sc.kL[i] >= 0 && sc.kR[i] >= 0 {
			return nil, nil, false
		}
	}
	lpts, rpts = sc.lpts[:0], sc.rpts[:0]
	for i := range sc.cells {
		if k := sc.kL[i]; k >= 0 {
			lpts = append(lpts, float64(sc.cells[i].x+int(k)))
		}
		if k := sc.kR[i]; k >= 0 {
			rpts = append(rpts, float64(sc.cells[i].x-int(k)))
		}
	}
	lpts = append(lpts, tx)
	rpts = append(rpts, tx)
	sc.lpts, sc.rpts = lpts, rpts
	return lpts, rpts, true
}

// evaluateExact scores an insertion point using the full exact
// displacement curve of equation (3): every transitively pushed local
// cell contributes its true critical position. The paper reports the
// exact method as O(|C_W|) but omits its construction for space; this is
// our reconstruction (see exactClearances).
func (r *Region) evaluateExact(ip *InsertionPoint, wt int, tx, ty float64) Evaluation {
	lpts, rpts, ok := r.exactPoints(ip, wt, tx)
	if !ok {
		return Evaluation{}
	}
	x, cost := pwlMin(lpts, rpts, ip.Lo, ip.Hi)
	return Evaluation{X: x, Cost: cost + r.yCost(ip.BottomRow(r), ty), OK: true}
}

// ExactCost returns the true total displacement (in site widths) that
// realizing ip with the target at x causes, including the target's own
// deviation from its desired position (tx, ty): evaluateExact's objective
// at x rather than at its minimizer.
func (r *Region) ExactCost(ip *InsertionPoint, wt int, x int, tx, ty float64) float64 {
	lpts, rpts, ok := r.exactPoints(ip, wt, tx)
	if !ok {
		return math.Inf(1)
	}
	return pwlCost(lpts, rpts, x) + r.yCost(ip.BottomRow(r), ty)
}
