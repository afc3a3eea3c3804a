package core

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: pwlMin returns a point inside [lo, hi] whose value matches a
// direct evaluation and is no worse than any sampled point.
func TestPWLMinQuick(t *testing.T) {
	type input struct {
		L, R  []uint8
		Lo    uint8
		Width uint8
	}
	f := func(in input) bool {
		lo := int(in.Lo % 40)
		hi := lo + int(in.Width%40)
		var lp, rp []float64
		for _, v := range in.L {
			lp = append(lp, float64(v%60))
		}
		for _, v := range in.R {
			rp = append(rp, float64(v%60))
		}
		eval := func(x int) float64 {
			var s float64
			for _, p := range lp {
				s += math.Max(0, p-float64(x))
			}
			for _, p := range rp {
				s += math.Max(0, float64(x)-p)
			}
			return s
		}
		x, c := pwlMin(lp, rp, lo, hi)
		if x < lo || x > hi {
			return false
		}
		if math.Abs(c-eval(x)) > 1e-9 {
			return false
		}
		for s := lo; s <= hi; s++ {
			if eval(s) < c-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: the interval bounds produced by IntervalAt are consistent with
// the leftmost/rightmost placements: for every local cell, xL ≤ x ≤ xR and
// packing the cells at xL (or xR) is overlap-free per segment.
func TestLeftRightPackingQuick(t *testing.T) {
	f := func(seed int64) bool {
		d, g := randomLegalDesign(seed)
		r := ExtractRegion(g, d.Bounds())
		if err := r.checkBounds(); err != nil {
			return false
		}
		// Per row, leftmost positions must be non-overlapping in order.
		for rel := range r.Segs {
			ls := &r.Segs[rel]
			if !ls.Valid {
				continue
			}
			curL := ls.Span.Lo
			curR := ls.Span.Hi
			cells := r.RowCells(rel)
			for _, id := range cells {
				lc := r.local(id)
				if lc.xL < curL {
					return false
				}
				curL = lc.xL + lc.w
			}
			for i := len(cells) - 1; i >= 0; i-- {
				lc := r.local(cells[i])
				if lc.xR+lc.w > curR {
					return false
				}
				curR = lc.xR
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: every enumerated insertion point admits a realization at every
// site of its range bound endpoints (spot-checking Lo and Hi).
func TestInsertionPointEndpointsRealizableQuick(t *testing.T) {
	f := func(seed int64) bool {
		d, g := randomLegalDesign(seed)
		r := ExtractRegion(g, d.Bounds())
		ips := r.EnumerateInsertionPoints(3, 1, nil)
		if len(ips) == 0 {
			return true
		}
		ip := ips[int(uint64(seed)%uint64(len(ips)))]
		for _, x := range []int{ip.Lo, ip.Hi} {
			d2 := d.Clone()
			g2 := mustGrid(d2)
			r2 := ExtractRegion(g2, d2.Bounds())
			var match *InsertionPoint
			for _, ip2 := range r2.EnumerateInsertionPoints(3, 1, nil) {
				if ipKey(ip2) == ipKey(ip) {
					match = ip2
					break
				}
			}
			if match == nil {
				return false
			}
			mi := -1
			for i := range d2.Lib {
				if d2.Lib[i].Width == 3 && d2.Lib[i].Height == 1 {
					mi = i
					break
				}
			}
			if mi < 0 {
				mi = d2.AddMaster(designMaster31())
			}
			tgt := d2.AddCell("t", mi, float64(x), float64(match.BottomRow(r2)))
			if _, err := r2.Realize(match, x, tgt); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
