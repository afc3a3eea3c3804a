package ilplegal

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/segment"
	"mrlegal/internal/verify"
)

func buildGrid(t testing.TB, d *design.Design) *segment.Grid {
	t.Helper()
	g := segment.Build(d)
	if err := g.RebuildOccupancy(); err != nil {
		t.Fatal(err)
	}
	return g
}

// bestByEnumeration finds the optimal insertion point cost by exhaustive
// enumeration with exact evaluation — the reference optimum of the local
// problem.
func bestByEnumeration(r *core.Region, wt, ht int, tx, ty float64, allow func(int) bool) (float64, bool) {
	best := math.Inf(1)
	found := false
	r.VisitInsertionPoints(wt, ht, allow, func(ip *core.InsertionPoint) bool {
		ev := r.EvaluateExact(ip, wt, tx, ty)
		if ev.OK && ev.Cost < best {
			best = ev.Cost
			found = true
		}
		return true
	})
	return best, found
}

func TestILPMatchesEnumerationOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		nRows := 2 + rng.Intn(3)
		width := 20 + rng.Intn(15)
		d := dtest.Flat(nRows, width)
		g := buildGrid(t, d)
		for i := 0; i < 8; i++ {
			w := 1 + rng.Intn(4)
			h := 1 + rng.Intn(min(2, nRows))
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
		tx := rng.Float64() * float64(width)
		ty := rng.Float64() * float64(nRows)

		r := core.ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: width, H: nRows})
		wantCost, feasible := bestByEnumeration(r, wt, ht, tx, ty, nil)

		s := &Solver{}
		tgt := d.Cell(dtest.Unplaced(d, wt, ht, tx, ty))
		ip, x, ok := s.SelectInsertionPoint(r, tgt, tx, ty, nil)
		if ok != feasible {
			t.Fatalf("trial %d: ILP ok=%v, enumeration feasible=%v", trial, ok, feasible)
		}
		if !ok {
			continue
		}
		ev := r.EvaluateExact(ip, wt, tx, ty)
		if !ev.OK || ev.X != x {
			t.Fatalf("trial %d: returned x=%d but exact eval says %d", trial, x, ev.X)
		}
		if math.Abs(ev.Cost-wantCost) > 1e-6 {
			t.Fatalf("trial %d: ILP cost %v, enumeration optimum %v (wt=%d ht=%d tx=%.2f ty=%.2f)",
				trial, ev.Cost, wantCost, wt, ht, tx, ty)
		}
	}
}

func TestILPRespectsPowerFilter(t *testing.T) {
	d := dtest.Flat(4, 20)
	g := buildGrid(t, d)
	r := core.ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 20, H: 4})
	s := &Solver{}
	tgt := d.Cell(dtest.Unplaced(d, 3, 2, 5, 1))
	allow := func(y int) bool { return y%2 == 1 }
	ip, _, ok := s.SelectInsertionPoint(r, tgt, 5, 1, allow)
	if !ok {
		t.Fatal("ILP found no solution")
	}
	if ip.BottomRow(r)%2 != 1 {
		t.Fatalf("ILP ignored the row filter: row %d", ip.BottomRow(r))
	}
}

func TestILPLegalizeEndToEnd(t *testing.T) {
	d := dtest.Flat(6, 40)
	rng := rand.New(rand.NewSource(4))
	g := buildGrid(t, d)
	var n int
	for n < 14 {
		w := 2 + rng.Intn(4)
		h := 1 + rng.Intn(2)
		x := rng.Intn(40 - w + 1)
		y := rng.Intn(6 - h + 1)
		if g.FreeAt(x, y, w, h) {
			id := dtest.Placed(d, w, h, x, y)
			if err := g.Insert(id); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		c.GX = float64(c.X) + rng.NormFloat64()*2
		c.GY = float64(c.Y) + rng.NormFloat64()
		c.Placed = false
	}
	cfg := core.DefaultConfig()
	cfg.Rx, cfg.Ry = 10, 2
	cfg.Solver = &Solver{}
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	s := cfg.Solver.(*Solver)
	if s.Problems == 0 {
		t.Fatal("ILP solver was never invoked")
	}
}

// TestILPNeverBeatenByMLL: on the same local problems the ILP optimum must
// be ≤ the (approximate-evaluation) MLL choice — the paper's Table 1
// relationship.
func TestILPNeverBeatenByMLL(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		nRows := 2 + rng.Intn(2)
		width := 20 + rng.Intn(10)
		d := dtest.Flat(nRows, width)
		g := buildGrid(t, d)
		for i := 0; i < 7; i++ {
			w := 1 + rng.Intn(4)
			h := 1 + rng.Intn(min(2, nRows))
			x := rng.Intn(width - w + 1)
			y := rng.Intn(nRows - h + 1)
			if g.FreeAt(x, y, w, h) {
				id := dtest.Placed(d, w, h, x, y)
				if err := g.Insert(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		wt, ht := 1+rng.Intn(3), 1
		tx := rng.Float64() * float64(width)
		ty := rng.Float64() * float64(nRows)
		r := core.ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: width, H: nRows})

		// MLL choice: best by approximate evaluation, then exact-cost it.
		var mllCost = math.Inf(1)
		var mllBestIP *core.InsertionPoint
		var bestApprox = math.Inf(1)
		for _, ip := range r.EnumerateInsertionPoints(wt, ht, nil) {
			ev := r.EvaluateApprox(ip, wt, tx, ty)
			if ev.OK && ev.Cost < bestApprox {
				bestApprox = ev.Cost
				mllBestIP = ip
			}
		}
		if mllBestIP != nil {
			ev := r.EvaluateExact(mllBestIP, wt, tx, ty)
			if ev.OK {
				mllCost = ev.Cost
			}
		}

		s := &Solver{}
		tgt := d.Cell(dtest.Unplaced(d, wt, ht, tx, ty))
		ip, _, ok := s.SelectInsertionPoint(r, tgt, tx, ty, nil)
		if !ok {
			if mllBestIP != nil {
				t.Fatalf("trial %d: MLL found a solution but ILP did not", trial)
			}
			continue
		}
		ilpCost := r.EvaluateExact(ip, wt, tx, ty).Cost
		if ilpCost > mllCost+1e-6 {
			t.Fatalf("trial %d: ILP cost %v worse than MLL %v", trial, ilpCost, mllCost)
		}
	}
}
