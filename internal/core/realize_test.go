package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/verify"
)

func TestRealizeSimplePush(t *testing.T) {
	d := dtest.Flat(1, 20)
	a := dtest.Placed(d, 5, 1, 2, 0)
	b := dtest.Placed(d, 5, 1, 8, 0)
	g := buildGrid(t, d)
	tgt := dtest.Unplaced(d, 4, 1, 6, 0)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 20, H: 1})
	var gap *InsertionPoint
	for _, ip := range r.EnumerateInsertionPoints(4, 1, nil) {
		if ip.Intervals[0].Left == a && ip.Intervals[0].Right == b {
			gap = ip
		}
	}
	if gap == nil {
		t.Fatal("middle gap not found")
	}
	moved, err := r.Realize(gap, 6, tgt)
	if err != nil {
		t.Fatal(err)
	}
	// Target at 6..10 pushes a to 1 and b to 10.
	if d.Cell(tgt).X != 6 || !d.Cell(tgt).Placed {
		t.Fatalf("target at %d", d.Cell(tgt).X)
	}
	if d.Cell(a).X != 1 {
		t.Errorf("a pushed to %d, want 1", d.Cell(a).X)
	}
	if d.Cell(b).X != 10 {
		t.Errorf("b pushed to %d, want 10", d.Cell(b).X)
	}
	if len(moved) != 2 {
		t.Errorf("moved = %v", moved)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !verify.Legal(d, verify.Options{}) {
		t.Fatal("placement not legal after realize")
	}
}

func TestRealizeMultiRowChain(t *testing.T) {
	// Pushing a double-height cell must drag cells on both of its rows.
	d := dtest.Flat(2, 24)
	m := dtest.Placed(d, 4, 2, 6, 0) // rows 0-1
	c0 := dtest.Placed(d, 4, 1, 11, 0)
	c1 := dtest.Placed(d, 4, 1, 10, 1)
	g := buildGrid(t, d)
	tgt := dtest.Unplaced(d, 6, 1, 0, 0)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 24, H: 2})
	var gap *InsertionPoint
	for _, ip := range r.EnumerateInsertionPoints(6, 1, nil) {
		iv := ip.Intervals[0]
		if ip.BottomRel == 0 && iv.Left == design.NoCell && iv.Right == m {
			gap = ip
		}
	}
	if gap == nil {
		t.Fatal("left-boundary gap on row 0 not found")
	}
	// Place target at x=2: m must move to 8; c0 to 12; c1 to 12.
	moved, err := r.Realize(gap, 2, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cell(m).X != 8 {
		t.Errorf("m at %d, want 8", d.Cell(m).X)
	}
	if d.Cell(c0).X != 12 {
		t.Errorf("c0 at %d, want 12", d.Cell(c0).X)
	}
	if d.Cell(c1).X != 12 {
		t.Errorf("c1 at %d, want 12", d.Cell(c1).X)
	}
	if len(moved) != 3 {
		t.Errorf("moved %d cells, want 3", len(moved))
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	verify.MustLegal(d, verify.Options{})
}

func TestRealizeRejectsOutOfRangeX(t *testing.T) {
	d := dtest.Flat(1, 20)
	g := buildGrid(t, d)
	tgt := dtest.Unplaced(d, 4, 1, 0, 0)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 20, H: 1})
	ips := r.EnumerateInsertionPoints(4, 1, nil)
	if len(ips) != 1 {
		t.Fatal("expected one insertion point on empty row")
	}
	if _, err := r.Realize(ips[0], 17, tgt); err == nil {
		t.Fatal("x=17 exceeds Hi=16; Realize should reject")
	}
	if d.Cell(tgt).Placed {
		t.Fatal("failed realize must not place the target")
	}
}

// TestRealizeMatchesExactEvaluation is a central property: for random
// small regions, the exact evaluator's predicted cost at the chosen x must
// equal the displacement measured after actually realizing the insertion
// point, and the result must always be legal.
func TestRealizeMatchesExactEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		nRows := 2 + rng.Intn(3)
		width := 24 + rng.Intn(20)
		d := dtest.Flat(nRows, width)
		g := buildGrid(t, d)
		for i := 0; i < 10; i++ {
			w := 1 + rng.Intn(5)
			h := 1 + rng.Intn(min(3, nRows))
			x := rng.Intn(width - w + 1)
			y := rng.Intn(nRows - h + 1)
			if g.FreeAt(x, y, w, h) {
				id := dtest.Placed(d, w, h, x, y)
				if err := g.Insert(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		wt := 1 + rng.Intn(4)
		ht := 1 + rng.Intn(min(2, nRows))
		tx := float64(rng.Intn(width))
		ty := float64(rng.Intn(nRows))

		r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: width, H: nRows})
		ips := r.EnumerateInsertionPoints(wt, ht, nil)
		if len(ips) == 0 {
			continue
		}
		ip := ips[rng.Intn(len(ips))]
		ev := r.evaluateExact(ip, wt, tx, ty)
		if !ev.OK {
			continue
		}

		// Snapshot positions, realize, measure.
		before := make(map[design.CellID]int)
		for _, id := range r.LocalCells() {
			before[id] = d.Cell(id).X
		}
		tgt := dtest.Unplaced(d, wt, ht, tx, ty)
		moved, err := r.Realize(ip, ev.X, tgt)
		if err != nil {
			t.Fatalf("trial %d: realize: %v", trial, err)
		}
		var measured float64
		for id, x0 := range before {
			measured += math.Abs(float64(d.Cell(id).X - x0))
		}
		tc := d.Cell(tgt)
		measured += math.Abs(float64(tc.X) - tx)
		measured += math.Abs(float64(tc.Y)-ty) * float64(d.SiteH) / float64(d.SiteW)

		if math.Abs(measured-ev.Cost) > 1e-9 {
			t.Fatalf("trial %d: exact eval predicted %v, realized %v (ip %s, x=%d, moved=%v)",
				trial, ev.Cost, measured, ipKey(ip), ev.X, moved)
		}
		if err := g.CheckConsistency(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		verify.MustLegal(d, verify.Options{})
	}
}

// TestRealizeAllXPositionsLegal drives Realize across the full feasible
// range of random insertion points and checks legality each time.
func TestRealizeAllXPositionsLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		nRows := 2 + rng.Intn(2)
		width := 20 + rng.Intn(12)
		base := dtest.Flat(nRows, width)
		gbase := buildGrid(t, base)
		for i := 0; i < 8; i++ {
			w := 1 + rng.Intn(4)
			h := 1 + rng.Intn(2)
			x := rng.Intn(width - w + 1)
			y := rng.Intn(nRows - h + 1)
			if gbase.FreeAt(x, y, w, h) {
				id := dtest.Placed(base, w, h, x, y)
				if err := gbase.Insert(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		wt, ht := 1+rng.Intn(3), 1+rng.Intn(2)
		rbase := ExtractRegion(gbase, geom.Rect{X: 0, Y: 0, W: width, H: nRows})
		ips := rbase.EnumerateInsertionPoints(wt, ht, nil)
		for _, ip := range ips {
			for x := ip.Lo; x <= ip.Hi; x++ {
				d := base.Clone()
				g := buildGrid(t, d)
				r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: width, H: nRows})
				// Re-find the corresponding insertion point in the clone.
				var match *InsertionPoint
				for _, ip2 := range r.EnumerateInsertionPoints(wt, ht, nil) {
					if ipKey(ip2) == ipKey(ip) {
						match = ip2
						break
					}
				}
				if match == nil {
					t.Fatalf("trial %d: insertion point vanished in clone", trial)
				}
				tgt := dtest.Unplaced(d, wt, ht, float64(x), float64(match.BottomRow(r)))
				if _, err := r.Realize(match, x, tgt); err != nil {
					t.Fatalf("trial %d: realize at x=%d: %v", trial, x, err)
				}
				if err := g.CheckConsistency(); err != nil {
					t.Fatalf("trial %d x=%d: %v", trial, x, err)
				}
				verify.MustLegal(d, verify.Options{})
			}
		}
	}
}

// spliceRealize is Region.Realize's push as it stood when the target was
// spliced into the region: the target joins the local cells as a tail
// entry of class tcls, enters each of its rows' index lists at its gap,
// dense per-row position tables are rebuilt to cover it, and both passes
// start from the target's own queue entry. It works on copies and
// commits nothing. It returns the pushed cells' IDs in discovery order
// with their x after the push, or an error where Realize failed.
func spliceRealize(r *Region, ip *InsertionPoint, x, wt, ht int, tcls uint8) ([]design.CellID, []int, error) {
	sc := r.sc
	cells := append(slices.Clone(sc.cells), localCell{id: design.NoCell, x: x, y: ip.BottomRow(r), w: wt, h: ht, cls: tcls})
	tIdx := int32(len(cells) - 1)
	n := len(cells)
	rowIdx := make([][]int32, len(r.Segs))
	for rel := range r.Segs {
		rowIdx[rel] = slices.Clone(sc.rowIdx[rel])
	}
	for k, iv := range ip.Intervals {
		rel := ip.BottomRel + k
		rowIdx[rel] = slices.Insert(rowIdx[rel], iv.GapIdx, tIdx)
	}
	rowPos := make([][]int32, len(r.Segs))
	for rel, idxs := range rowIdx {
		rowPos[rel] = make([]int32, n)
		fill32(rowPos[rel], -1)
		for p, li := range idxs {
			rowPos[rel][li] = int32(p)
		}
	}

	budget := (n + 2) * 8 * len(r.Segs)
	mark := make([]bool, n)
	var movedList []int32
	cons := sc.cons
	// Left pass.
	queue := []int32{tIdx}
	for qi := 0; qi < len(queue); qi++ {
		if budget--; budget < 0 {
			return nil, nil, fmt.Errorf("left push did not converge")
		}
		u := &cells[queue[qi]]
		for h := 0; h < u.h; h++ {
			rel := r.RelRow(u.y + h)
			pos := rowPos[rel][queue[qi]]
			if pos <= 0 {
				continue
			}
			vi := rowIdx[rel][pos-1]
			v := &cells[vi]
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
			return nil, nil, fmt.Errorf("right push did not converge")
		}
		u := &cells[queue[qi]]
		for h := 0; h < u.h; h++ {
			rel := r.RelRow(u.y + h)
			idxs := rowIdx[rel]
			pos := rowPos[rel][queue[qi]]
			if pos < 0 || int(pos)+1 >= len(idxs) {
				continue
			}
			vi := idxs[pos+1]
			v := &cells[vi]
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
	for _, li := range movedList {
		if lc := &cells[li]; lc.x < lc.xL || lc.x > lc.xR {
			return nil, nil, fmt.Errorf("pushed cell %d to x=%d outside [%d,%d]", lc.id, lc.x, lc.xL, lc.xR)
		}
	}
	var ids []design.CellID
	var xs []int
	for _, li := range movedList {
		if li != tIdx {
			ids = append(ids, cells[li].id)
			xs = append(xs, cells[li].x)
		}
	}
	return ids, xs, nil
}

// TestRealizeMatchesSpliceReference pins Realize to spliceRealize. Random
// dense regions with cells up to three rows tall, half of them under a
// random constraint set (fence, spacing, TPL), realize every enumerated
// insertion point of a random target at its Lo, its Hi and a middle x.
// Each realization must push the same cells in the same order (Realize's
// result, hence LastMoved) to the same final x as the reference, or fail
// where the reference fails. The legalizer's undo log restores the design
// after each one, and the window is extracted again.
func TestRealizeMatchesSpliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	realized, chains, gapped := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		rows, width := 3+rng.Intn(4), 20+rng.Intn(25)
		d := dtest.Flat(rows, width)
		g := buildGrid(t, d)
		for i := 0; i < 40; i++ {
			w, h := 1+rng.Intn(5), 1+rng.Intn(3)
			x, y := rng.Intn(width-w+1), rng.Intn(rows-h+1)
			if g.FreeAt(x, y, w, h) {
				if err := g.Insert(dtest.Placed(d, w, h, x, y)); err != nil {
					t.Fatal(err)
				}
			}
		}
		cfg := DefaultConfig()
		cfg.PowerAlign = false
		if trial%2 == 1 {
			cfg.Constraints = fuzzConstraintSet(t, rng, uint8(rng.Intn(7)), rows, width)
		}
		wt, ht := 1+rng.Intn(4), 1+rng.Intn(3)
		tx, ty := rng.Float64()*float64(width), rng.Float64()*float64(rows)
		tgt := dtest.Unplaced(d, wt, ht, tx, ty)
		l, err := NewLegalizer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, sc, win := d.Cell(tgt), l.sc, d.Bounds()
		l.armConstraints(sc, c, tx)
		for _, ip := range sc.extract(l.G, win).EnumerateInsertionPoints(wt, ht, nil) {
			for _, x := range []int{ip.Lo, (ip.Lo + ip.Hi) / 2, ip.Hi} {
				r := sc.extract(l.G, win)
				wantIDs, wantXs, wantErr := spliceRealize(r, ip, x, wt, ht, sc.conTCls)
				gotIDs, gotErr := r.Realize(ip, x, tgt)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("trial %d ip %s x=%d: Realize error %v, reference error %v", trial, ipKey(ip), x, gotErr, wantErr)
				}
				if gotErr == nil {
					if !slices.Equal(gotIDs, wantIDs) {
						t.Fatalf("trial %d ip %s x=%d: pushed %v, reference %v", trial, ipKey(ip), x, gotIDs, wantIDs)
					}
					for i, id := range gotIDs {
						if d.Cell(id).X != wantXs[i] {
							t.Fatalf("trial %d ip %s x=%d: cell %d at x=%d, reference %d", trial, ipKey(ip), x, id, d.Cell(id).X, wantXs[i])
						}
						if d.Cell(id).H > 1 && len(gotIDs) > 1 {
							chains++
						}
					}
					if sc.cons.MaxGap() > 0 && len(gotIDs) > 0 {
						gapped++
					}
					realized++
				}
				if err := l.rollback(); err != nil {
					t.Fatal(err)
				}
				if d.Cell(tgt).Placed {
					t.Fatalf("trial %d: rollback left the target placed", trial)
				}
			}
		}
	}
	if chains == 0 || gapped == 0 {
		t.Fatalf("%d realizations: %d pushed multi-row cells along with others, %d pushed under constraint gaps; the comparison needs both", realized, chains, gapped)
	}
	t.Logf("%d realizations, %d multi-row pushes in chains, %d under constraint gaps", realized, chains, gapped)
}
