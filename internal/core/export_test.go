package core

import (
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
)

func TestInfoAccessor(t *testing.T) {
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 5, 2, 10, 0)
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 40, H: 2})
	info, ok := r.Info(a)
	if !ok {
		t.Fatal("cell should be local")
	}
	if info.X != 10 || info.W != 5 || info.H != 2 || info.XL != 0 || info.XR != 35 {
		t.Fatalf("info = %+v", info)
	}
	if _, ok := r.Info(design.CellID(999)); ok {
		t.Fatal("unknown cell should not be local")
	}
}

func TestIntervalAt(t *testing.T) {
	d := dtest.Flat(1, 30)
	a := dtest.Placed(d, 5, 1, 10, 0)
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 30, H: 1})

	// Gap 0: boundary .. a. Target w=4: lo=0, hi=xR_a-4 = 25-4 = 21.
	iv, ok := r.IntervalAt(0, 0, 4)
	if !ok || iv.Lo != 0 || iv.Hi != 21 || iv.Left != design.NoCell || iv.Right != a {
		t.Fatalf("gap0 = %+v ok=%v", iv, ok)
	}
	// Gap 1: a .. boundary: lo = xL_a + 5 = 5, hi = 30-4 = 26.
	iv, ok = r.IntervalAt(0, 1, 4)
	if !ok || iv.Lo != 5 || iv.Hi != 26 || iv.Left != a {
		t.Fatalf("gap1 = %+v ok=%v", iv, ok)
	}
	// Out of range requests.
	if _, ok := r.IntervalAt(0, 2, 4); ok {
		t.Fatal("gap index out of range accepted")
	}
	if _, ok := r.IntervalAt(1, 0, 4); ok {
		t.Fatal("row out of range accepted")
	}
	if _, ok := r.IntervalAt(0, 0, 40); ok {
		t.Fatal("oversized target accepted")
	}
}

func TestBuildInsertionPoint(t *testing.T) {
	d := dtest.Flat(2, 30)
	a := dtest.Placed(d, 5, 2, 10, 0) // multi-row
	_ = a
	g := buildGrid(t, d)
	r := ExtractRegion(g, geom.Rect{X: 0, Y: 0, W: 30, H: 2})

	// Same-side combination: both gaps left of a.
	ip, ok := r.BuildInsertionPoint(0, []int{0, 0}, 4)
	if !ok {
		t.Fatal("left-left combination rejected")
	}
	if ip.Lo != 0 || ip.Hi != 21 {
		t.Fatalf("range = [%d,%d]", ip.Lo, ip.Hi)
	}
	// Cross-side combination must be rejected (Figure 8).
	if _, ok := r.BuildInsertionPoint(0, []int{0, 1}, 4); ok {
		t.Fatal("cross-side combination accepted")
	}
	// Wrong gap count handled via invalid interval lookups.
	if _, ok := r.BuildInsertionPoint(0, []int{0, 5}, 4); ok {
		t.Fatal("bad gap index accepted")
	}
	// Evaluation through the exported wrappers.
	evA := r.EvaluateApprox(ip, 4, 2, 0)
	evE := r.EvaluateExact(ip, 4, 2, 0)
	if !evA.OK || !evE.OK {
		t.Fatal("evaluations failed")
	}
	if evE.Cost > evA.Cost+1e-9 && evA.Cost > evE.Cost+1e-9 {
		t.Fatal("inconsistent evaluations")
	}
	if r.Win != (geom.Rect{X: 0, Y: 0, W: 30, H: 2}) {
		t.Fatalf("window = %v", r.Win)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(5), newRNG(5)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	c := newRNG(6)
	same := true
	a2 := newRNG(5)
	for i := 0; i < 10; i++ {
		if a2.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds give identical streams")
	}
}

func TestRNGRangeInt(t *testing.T) {
	r := newRNG(9)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		v := r.rangeInt(3)
		if v < -3 || v > 3 {
			t.Fatalf("rangeInt(3) = %d", v)
		}
		seen[v] = true
	}
	for v := -3; v <= 3; v++ {
		if !seen[v] {
			t.Errorf("value %d never produced", v)
		}
	}
	if r.rangeInt(0) != 0 {
		t.Fatal("rangeInt(0) should be 0")
	}
}

func TestSnapPowerParity(t *testing.T) {
	d := dtest.Flat(8, 40)
	mi := d.AddMaster(design.Master{Name: "dbl", Width: 4, Height: 2, BottomRail: design.VSS})
	id := d.AddCell("c", mi, 10, 3.1) // desired row 3 — VDD bottom, incompatible
	l, err := NewLegalizer(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := d.Cell(id)
	x, y, ok := l.snap(c, 10, 3.1)
	if !ok {
		t.Fatal("snap failed")
	}
	if y != 4 && y != 2 {
		t.Fatalf("snap chose row %d, want a VSS-bottom row near 3", y)
	}
	// 3.1 is closer to 4 than to 2? |3.1-2|=1.1 vs |3.1-4|=0.9 → row 4.
	if y != 4 {
		t.Fatalf("snap chose row %d, want 4 (nearer)", y)
	}
	if x != 10 {
		t.Fatalf("x = %d", x)
	}

	// Relaxed mode keeps the desired row.
	cfg := DefaultConfig()
	cfg.PowerAlign = false
	l2, err := NewLegalizer(dtest.Flat(8, 40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mi2 := l2.D.AddMaster(design.Master{Name: "dbl", Width: 4, Height: 2, BottomRail: design.VSS})
	id2 := l2.D.AddCell("c", mi2, 10, 3.1)
	_, y2, ok := l2.snap(l2.D.Cell(id2), 10, 3.1)
	if !ok || y2 != 3 {
		t.Fatalf("relaxed snap row = %d, want 3", y2)
	}
}

func TestSnapClampsToDie(t *testing.T) {
	d := dtest.Flat(4, 20)
	id := dtest.Unplaced(d, 5, 1, -10, -3)
	l, err := NewLegalizer(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x, y, ok := l.snap(d.Cell(id), -10, -3)
	if !ok || x != 0 || y != 0 {
		t.Fatalf("snap = (%d,%d,%v)", x, y, ok)
	}
	x, y, ok = l.snap(d.Cell(id), 100, 100)
	if !ok || x != 15 || y != 3 {
		t.Fatalf("snap = (%d,%d,%v)", x, y, ok)
	}
	tall := dtest.Unplaced(d, 5, 9, 0, 0) // taller than the die
	if _, _, ok := l.snap(d.Cell(tall), 0, 0); ok {
		t.Fatal("snap should fail for over-tall cells")
	}
}

func TestLastMovedReporting(t *testing.T) {
	d := dtest.Flat(1, 20)
	a := dtest.Placed(d, 5, 1, 2, 0)
	b := dtest.Placed(d, 5, 1, 8, 0)
	tgt := dtest.Unplaced(d, 4, 1, 6, 0)
	l, err := NewLegalizer(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if l.MLL(tgt, 6, 0) != nil {
		t.Fatal("MLL failed")
	}
	moved := l.LastMoved()
	if len(moved) != 2 {
		t.Fatalf("LastMoved = %v, want both neighbors", moved)
	}
	seen := map[design.CellID]bool{}
	for _, id := range moved {
		seen[id] = true
	}
	if !seen[a] || !seen[b] || seen[tgt] {
		t.Fatalf("LastMoved = %v", moved)
	}
	// A free placement clears the list.
	free := dtest.Unplaced(d, 2, 1, 16, 0)
	if l.MoveCell(free, 16, 0) != nil {
		t.Fatal("free placement failed")
	}
	if len(l.LastMoved()) != 0 {
		t.Fatalf("LastMoved after free placement = %v", l.LastMoved())
	}
}
