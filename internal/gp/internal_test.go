package gp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
)

func TestEqualizeUniform(t *testing.T) {
	// Four equal-area items crowded at one end spread to quarter points.
	band := []spreadItem{
		{vi: 0, pos: 1, area: 1},
		{vi: 1, pos: 2, area: 1},
		{vi: 2, pos: 3, area: 1},
		{vi: 3, pos: 4, area: 1},
	}
	cur := []float64{1, 2, 3, 4}
	anchors := make([]float64, 4)
	equalize(band, 0, 80, cur, anchors, 1.0)
	want := []float64{10, 30, 50, 70} // cumulative midpoints of 4 equal shares
	for i := range want {
		if math.Abs(anchors[i]-want[i]) > 1e-9 {
			t.Fatalf("anchors = %v, want %v", anchors, want)
		}
	}
}

func TestEqualizeDamping(t *testing.T) {
	band := []spreadItem{{vi: 0, pos: 0, area: 1}}
	cur := []float64{0}
	anchors := []float64{0}
	equalize(band, 0, 100, cur, anchors, 0.5)
	// Full target is 50 (midpoint); damping 0.5 gives 25.
	if anchors[0] != 25 {
		t.Fatalf("anchor = %v, want 25", anchors[0])
	}
	equalize(nil, 0, 100, cur, anchors, 1.0) // no-op on empty band
}

func TestEqualizeWeightsByArea(t *testing.T) {
	band := []spreadItem{
		{vi: 0, pos: 0, area: 3},
		{vi: 1, pos: 1, area: 1},
	}
	cur := []float64{0, 1}
	anchors := make([]float64, 2)
	equalize(band, 0, 8, cur, anchors, 1.0)
	// Cumulative mids: (1.5/4)*8=3 and (3.5/4)*8=7.
	if anchors[0] != 3 || anchors[1] != 7 {
		t.Fatalf("anchors = %v", anchors)
	}
}

// TestEqualizeOrderMatchesSortSlice: equalize orders a band exactly as
// sort.Slice did with the same < comparison, ties included, so bands full
// of equal positions keep their anchors bit for bit.
func TestEqualizeOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(300)
		distinct := 1 + rng.Intn(4)
		band := make([]spreadItem, n)
		for i := range band {
			band[i] = spreadItem{vi: i, pos: float64(rng.Intn(distinct)), area: 1 + float64(rng.Intn(3))}
		}
		want := append([]spreadItem(nil), band...)
		sort.Slice(want, func(i, j int) bool { return want[i].pos < want[j].pos })
		cur := make([]float64, n)
		equalize(band, 0, 100, cur, make([]float64, n), 1)
		for i := range band {
			if band[i].vi != want[i].vi {
				t.Fatalf("iter %d (n=%d, %d positions): item %d is %d, sort.Slice put %d there",
					iter, n, distinct, i, band[i].vi, want[i].vi)
			}
		}
	}
}

func TestSystemCGSolvesSPD(t *testing.T) {
	// Two springs: var0—var1 (w=2) and anchors var0→0 (w=1), var1→10 (w=3).
	s := newSystem(2)
	s.addConnection(0, 1, 2)
	s.addAnchor(0, 0, 1)
	s.addAnchor(1, 10, 3)
	x := []float64{5, 5}
	s.solveCG(x, 1e-10, 100)
	// Solve: [3 -2; -2 5] x = [0; 30] → x = (60/11, 90/11).
	if math.Abs(x[0]-60.0/11) > 1e-6 || math.Abs(x[1]-90.0/11) > 1e-6 {
		t.Fatalf("x = %v", x)
	}
}

func TestRoughLegalizeBalancesOverfullRows(t *testing.T) {
	d := design.New("t", 200, 2000)
	d.AddUniformRows(4, geom.Span{Lo: 0, Hi: 20})
	mi := d.AddMaster(design.Master{Name: "m", Width: 4, Height: 1, BottomRail: design.VSS})
	var movable []design.CellID
	// 12 cells of width 4 = 48 sites of area; all pulled to row 1.
	x := make([]float64, 0, 12)
	y := make([]float64, 0, 12)
	for i := 0; i < 12; i++ {
		id := d.AddCell("", mi, 0, 0)
		movable = append(movable, id)
		x = append(x, float64((i*3)%16)+2)
		y = append(y, 1.5+0.01*float64(i)) // centers near row 1
	}
	roughLegalize(d, movable, x, y, Config{Seed: 1})
	perRow := map[int]float64{}
	for vi, id := range movable {
		c := d.Cell(id)
		bottom := int(math.Round(y[vi] - float64(c.H)/2))
		perRow[bottom] += float64(c.W)
	}
	for row, width := range perRow {
		if width > 20*0.97+4 { // one cell of slack for the balancing granularity
			t.Fatalf("row %d still overfull: %v (all: %v)", row, width, perRow)
		}
	}
}
