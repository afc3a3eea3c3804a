package core

import (
	"math"
	"math/rand"
	"testing"

	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
)

func TestPWLMinSimple(t *testing.T) {
	// f(x) = |x-5| over [0,10] → min at 5.
	x, c := pwlMin([]float64{5}, []float64{5}, 0, 10)
	if x != 5 || c != 0 {
		t.Fatalf("got x=%d cost=%v, want 5, 0", x, c)
	}
	// Clamped on the left: desired 5, range [7,10].
	x, c = pwlMin([]float64{5}, []float64{5}, 7, 10)
	if x != 7 || c != 2 {
		t.Fatalf("got x=%d cost=%v, want 7, 2", x, c)
	}
	// L-point 2 and R-point 8 leave a zero-cost valley [2,8]; pwlMin
	// returns the leftmost minimizer.
	x, c = pwlMin([]float64{2}, []float64{8}, 0, 10)
	if c != 0 || x != 2 {
		t.Fatalf("got x=%d cost=%v, want 2, 0", x, c)
	}
	// Crossed points (L=8, R=2) force cost 6 everywhere in [2,8].
	x, c = pwlMin([]float64{8}, []float64{2}, 0, 10)
	if c != 6 || x < 2 || x > 8 {
		t.Fatalf("got x=%d cost=%v, want cost 6 in [2,8]", x, c)
	}
}

func TestPWLMinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		var lp, rp []float64
		for i := 0; i < rng.Intn(6); i++ {
			lp = append(lp, float64(rng.Intn(40))-0.5*float64(rng.Intn(2)))
		}
		for i := 0; i < rng.Intn(6); i++ {
			rp = append(rp, float64(rng.Intn(40))-0.5*float64(rng.Intn(2)))
		}
		lo := rng.Intn(20)
		hi := lo + rng.Intn(20)
		f := func(x int) float64 {
			var s float64
			for _, p := range lp {
				s += math.Max(0, p-float64(x))
			}
			for _, p := range rp {
				s += math.Max(0, float64(x)-p)
			}
			return s
		}
		bestC := math.Inf(1)
		for x := lo; x <= hi; x++ {
			if v := f(x); v < bestC {
				bestC = v
			}
		}
		x, c := pwlMin(lp, rp, lo, hi)
		if c != f(x) {
			t.Fatalf("trial %d: reported cost %v != f(%d)=%v", trial, c, x, f(x))
		}
		if math.Abs(c-bestC) > 1e-9 {
			t.Fatalf("trial %d: pwlMin cost %v, brute force %v (lp=%v rp=%v range [%d,%d])",
				trial, c, bestC, lp, rp, lo, hi)
		}
	}
}

func TestApproxEvalNeighborCriticals(t *testing.T) {
	// One row: a(w=5)@10, b(w=5)@30; insert target w=4 between them with
	// desired x 18.4. Critical positions: a → 15, b → 26. Median family
	// puts the optimum at the desired position (no displacement).
	d := dtest.Flat(1, 60)
	a := dtest.Placed(d, 5, 1, 10, 0)
	b := dtest.Placed(d, 5, 1, 30, 0)
	_, _ = a, b
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 60, H: 1})
	ips := r.EnumerateInsertionPoints(4, 1, nil)
	var mid *InsertionPoint
	for _, ip := range ips {
		if ip.Intervals[0].GapIdx == 1 {
			mid = ip
		}
	}
	if mid == nil {
		t.Fatal("no middle insertion point found")
	}
	ev := r.evaluateApprox(mid, 4, 18.4, 0)
	if !ev.OK {
		t.Fatal("evaluation failed")
	}
	if ev.X != 18 {
		t.Fatalf("optimal x = %d, want 18 (nearest site to 18.4 in the free gap)", ev.X)
	}
	if math.Abs(ev.Cost-0.4) > 1e-9 {
		t.Fatalf("cost = %v, want 0.4 (target deviation only)", ev.Cost)
	}
}

func TestApproxEvalPushCost(t *testing.T) {
	// Force a push: desired x overlaps b's position.
	d := dtest.Flat(1, 40)
	dtest.Placed(d, 5, 1, 10, 0)
	dtest.Placed(d, 5, 1, 16, 0) // gap between cells: 1 site at x=15
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 40, H: 1})
	ips := r.EnumerateInsertionPoints(4, 1, nil)
	var mid *InsertionPoint
	for _, ip := range ips {
		if ip.Intervals[0].GapIdx == 1 {
			mid = ip
		}
	}
	if mid == nil {
		t.Fatal("no middle insertion point")
	}
	// Desired exactly 15: a's critical = 15, b's critical = 16-4 = 12.
	// x=15: a unmoved, b pushed 15+4-16 = 3; target disp 0 → cost 3.
	// x=12: b unmoved, a pushed 3, target disp 3 → cost 6. So x=15.
	ev := r.evaluateApprox(mid, 4, 15, 0)
	if ev.X != 15 || math.Abs(ev.Cost-3) > 1e-9 {
		t.Fatalf("got x=%d cost=%v, want 15, 3", ev.X, ev.Cost)
	}
}

func TestExactEvalPropagatesThroughMultiRow(t *testing.T) {
	// Row layout (width 30):
	//   row0: a(w=4)@4   m(w=4, h=2)@12
	//   row1: b(w=4)@0   m              c(w=4)@26
	// Insert target (w=4,h=1) in row 0 gap left of a... rather right of a,
	// pushing a → m? No: pushing left means target pushes cells to ITS
	// left. Choose the gap on row 0 between a and m, target x near m so m
	// must move right, which drags c on row 1.
	d := dtest.Flat(2, 30)
	a := dtest.Placed(d, 4, 1, 4, 0)
	m := dtest.Placed(d, 4, 2, 12, 0)
	b := dtest.Placed(d, 4, 1, 0, 1)
	c := dtest.Placed(d, 4, 1, 26, 1)
	_, _ = a, b
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 30, H: 2})
	ips := r.EnumerateInsertionPoints(4, 1, nil)
	var gap *InsertionPoint
	for _, ip := range ips {
		iv := ip.Intervals[0]
		if ip.BottomRel == 0 && iv.Left == a && iv.Right == m {
			gap = ip
		}
	}
	if gap == nil {
		t.Fatal("gap (a, m) on row 0 not found")
	}
	r.exactClearances(gap, 4)
	kL, kR := r.sc.kL, r.sc.kR
	ai, bi, mi, ci := r.localIdx(a), r.localIdx(b), r.localIdx(m), r.localIdx(c)
	// Right side: m direct → kR = 4 (w_t). c through m → kR = 4 + 4 = 8.
	if kR[mi] != 4 {
		t.Errorf("kR[m] = %d, want 4", kR[mi])
	}
	if kR[ci] != 8 {
		t.Errorf("kR[c] = %d, want 8 (propagated through multi-row m)", kR[ci])
	}
	// Left side: a direct → kL = 4; b through a? b is on row 1, a on row
	// 0 only — no shared row, no propagation.
	if kL[ai] != 4 {
		t.Errorf("kL[a] = %d, want 4", kL[ai])
	}
	if kL[bi] >= 0 {
		t.Errorf("kL[b] should be unset (no push path), got %d", kL[bi])
	}
	// b IS left neighbor of m on row 1, so pushing m left would push b;
	// but m is on the right side here. Confirm b not in kR either (b is
	// left of m).
	if kR[bi] >= 0 {
		t.Errorf("kR[b] should be unset, got %d", kR[bi])
	}

	// Critical positions: b_m = 12-4 = 8, b_c = 26-8 = 18, a_a = 4+4 = 8.
	// Desired x = 16: f(16) = max(0,8-16)+max(0,16-8)+max(0,16-18)+0 = 8.
	// Optimum: x=8 → f=0+0+0+8(target) = 8 too... the whole plateau [8,?]:
	// f(x) = (x-8 if x>8) + (x-18 if x>18) + (8-x if x<8) + |x-16|.
	// x=16: 8+0+0+0=8. x=12: 4+0+0+4=8. x=8: 0+0+0+8=8. Flat at 8.
	ev := r.evaluateExact(gap, 4, 16, 0)
	if !ev.OK || math.Abs(ev.Cost-8) > 1e-9 {
		t.Fatalf("exact cost = %v (x=%d), want 8", ev.Cost, ev.X)
	}
	// ExactCost is the same objective at a chosen x: the evaluated cost at
	// the minimizer, and at x=18 (the interval's right end: m pushed 10
	// sites to 22, c untouched at 26, the target 2 from 16) it is 12.
	if got := r.ExactCost(gap, 4, ev.X, 16, 0); got != ev.Cost {
		t.Errorf("ExactCost at the minimizer = %v, want %v", got, ev.Cost)
	}
	if got := r.ExactCost(gap, 4, 18, 16, 0); math.Abs(got-12) > 1e-9 {
		t.Errorf("ExactCost at x=18 = %v, want 12", got)
	}
}

func TestExactEvalYCost(t *testing.T) {
	d := dtest.Flat(3, 20)
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 20, H: 3})
	ips := r.EnumerateInsertionPoints(2, 1, nil)
	// Pick the row-2 insertion point with desired row 0: y cost = 2 rows
	// = 2*SiteH/SiteW = 20 site widths.
	for _, ip := range ips {
		if ip.BottomRow(r) == 2 {
			ev := r.evaluateExact(ip, 2, 5, 0)
			want := 2 * float64(dtest.SiteH) / float64(dtest.SiteW)
			if math.Abs(ev.Cost-want) > 1e-9 {
				t.Fatalf("y cost = %v, want %v", ev.Cost, want)
			}
		}
	}
}
