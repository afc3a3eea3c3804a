package core

import (
	"context"
	"math/rand"
	"testing"

	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/segment"
	"mrlegal/internal/verify"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Rx, cfg.Ry = 15, 3
	return cfg
}

func TestMLLPlacesIntoGap(t *testing.T) {
	d := dtest.Flat(2, 40)
	dtest.Placed(d, 6, 1, 4, 0)
	dtest.Placed(d, 6, 1, 12, 0)
	tgt := dtest.Unplaced(d, 4, 1, 10, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if l.MLL(tgt, 10, 0) != nil {
		t.Fatal("MLL failed on easy instance")
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.MLLSuccesses != 1 || st.MLLCalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMLLFailsWhenNoSpace(t *testing.T) {
	d := dtest.Flat(1, 10)
	a := dtest.Placed(d, 5, 1, 0, 0)
	b := dtest.Placed(d, 5, 1, 5, 0)
	_, _ = a, b
	tgt := dtest.Unplaced(d, 4, 1, 3, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if l.MLL(tgt, 3, 0) == nil {
		t.Fatal("MLL should fail on a full row")
	}
	if d.Cell(tgt).Placed {
		t.Fatal("failed MLL must leave the target unplaced")
	}
	// Existing cells must be untouched.
	if d.Cell(a).X != 0 || d.Cell(b).X != 5 {
		t.Fatal("failed MLL displaced existing cells")
	}
}

func TestMLLRespectsPowerAlignment(t *testing.T) {
	d := dtest.Flat(6, 40)
	// Even-height target compatible with rows whose bottom rail is VSS
	// (even rows under the default convention).
	mi := d.AddMaster(design.Master{Name: "dbl", Width: 4, Height: 2, BottomRail: design.VSS})
	tgt := d.AddCell("t", mi, 10, 1.0) // desired row 1 — incompatible
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if l.MLL(tgt, 10, 1.0) != nil {
		t.Fatal("MLL failed")
	}
	c := d.Cell(tgt)
	if c.Y%2 != 0 {
		t.Fatalf("even-height cell landed on row %d, violating rail alignment", c.Y)
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})

	// Relaxed mode may use row 1.
	d2 := dtest.Flat(6, 40)
	mi2 := d2.AddMaster(design.Master{Name: "dbl", Width: 4, Height: 2, BottomRail: design.VSS})
	tgt2 := d2.AddCell("t", mi2, 10, 1.0)
	cfg := testConfig()
	cfg.PowerAlign = false
	l2, err := NewLegalizer(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l2.MLL(tgt2, 10, 1.0) != nil {
		t.Fatal("relaxed MLL failed")
	}
	if d2.Cell(tgt2).Y != 1 {
		t.Fatalf("relaxed MLL should use the desired row 1, got %d", d2.Cell(tgt2).Y)
	}
}

func TestMLLPrefersZeroDisplacement(t *testing.T) {
	d := dtest.Flat(3, 60)
	dtest.Placed(d, 6, 1, 20, 1)
	tgt := dtest.Unplaced(d, 4, 1, 40, 1)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if l.MLL(tgt, 40, 1) != nil {
		t.Fatal("MLL failed")
	}
	c := d.Cell(tgt)
	if c.X != 40 || c.Y != 1 {
		t.Fatalf("free space at desired position should be used exactly; got (%d,%d)", c.X, c.Y)
	}
}

func TestLegalizeSmallDense(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, align := range []bool{false, true} {
			d := dtest.Flat(8, 60)
			rng := rand.New(rand.NewSource(5))
			// ~70% density of random unplaced cells with noisy positions.
			area := 0
			for area < 8*60*7/10 {
				w := 2 + rng.Intn(5)
				h := 1 + rng.Intn(2)
				gx := rng.Float64() * float64(60-w)
				gy := rng.Float64() * float64(8-h)
				dtest.Unplaced(d, w, h, gx, gy)
				area += w * h
			}
			cfg := testConfig()
			cfg.ExactEval = exact
			cfg.PowerAlign = align
			l, err := NewLegalizer(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Legalize(context.Background()); err != nil {
				t.Fatalf("exact=%v align=%v: %v", exact, align, err)
			}
			verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: align})
			if err := l.G.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestLegalizeDeterministic(t *testing.T) {
	build := func() *design.Design {
		d := dtest.Flat(6, 50)
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 30; i++ {
			w := 2 + rng.Intn(4)
			h := 1 + rng.Intn(2)
			dtest.Unplaced(d, w, h, rng.Float64()*float64(50-w), rng.Float64()*float64(6-h))
		}
		return d
	}
	run := func() []int {
		d := build()
		l, err := NewLegalizer(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Legalize(context.Background()); err != nil {
			t.Fatal(err)
		}
		var xs []int
		for i := range d.Cells {
			xs = append(xs, d.Cells[i].X, d.Cells[i].Y)
		}
		return xs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("legalization not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLegalizeReportsImpossible(t *testing.T) {
	d := dtest.Flat(1, 10)
	dtest.Unplaced(d, 20, 1, 0, 0) // wider than the row
	cfg := testConfig()
	cfg.MaxRounds = 3
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err == nil {
		t.Fatal("expected an error for an unplaceable cell")
	}
}

func TestMoveCellKeepsLegality(t *testing.T) {
	d := dtest.Flat(4, 40)
	rng := rand.New(rand.NewSource(13))
	var ids []design.CellID
	for i := 0; i < 15; i++ {
		w := 2 + rng.Intn(3)
		h := 1 + rng.Intn(2)
		ids = append(ids, dtest.Unplaced(d, w, h, rng.Float64()*36, rng.Float64()*3))
	}
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		id := ids[rng.Intn(len(ids))]
		l.MoveCell(id, rng.Float64()*36, rng.Float64()*3)
		verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})
		if err := l.G.CheckConsistency(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMoveCellRestoresOnFailure(t *testing.T) {
	d := dtest.Flat(1, 12)
	a := dtest.Unplaced(d, 6, 1, 0, 0)
	b := dtest.Unplaced(d, 6, 1, 6, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = b
	// Row is full: any move keeps a legal layout (cells just swap or
	// shift); move to an impossible spot (off-row) must restore.
	oldX, oldY := d.Cell(a).X, d.Cell(a).Y
	if l.MoveCell(a, 0, 10) == nil {
		// Row 10 doesn't exist; MLL windows clip back onto row 0, so the
		// move may still succeed within row 0. If it succeeded, legality
		// must hold.
		verify.MustLegal(d, verify.Options{RequirePlaced: true})
	} else {
		c := d.Cell(a)
		if !c.Placed || c.X != oldX || c.Y != oldY {
			t.Fatal("failed move did not restore the original position")
		}
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true})
}

func TestResizeCell(t *testing.T) {
	d := dtest.Flat(2, 30)
	a := dtest.Unplaced(d, 4, 1, 5, 0)
	bid := dtest.Unplaced(d, 4, 1, 10, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if l.ResizeCell(a, 8) != nil {
		t.Fatal("upsize failed")
	}
	if d.Cell(a).W != 8 {
		t.Fatal("width not applied")
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if l.ResizeCell(bid, 2) != nil {
		t.Fatal("downsize failed")
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})
}

func TestResizeCellRestoreOnFailure(t *testing.T) {
	d := dtest.Flat(1, 12)
	a := dtest.Unplaced(d, 6, 1, 0, 0)
	dtest.Unplaced(d, 6, 1, 6, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if l.ResizeCell(a, 8) == nil {
		t.Fatal("resize should fail: row already full")
	}
	if d.Cell(a).W != 6 || !d.Cell(a).Placed {
		t.Fatal("failed resize did not restore the cell")
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true})
}

// TestLegalizeRandomProperty: for many random instances across densities,
// legalization must terminate with a fully legal placement under both
// power modes.
func TestLegalizeRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		// Build a known-legal packing first and perturb it: a legal
		// solution is then guaranteed to exist, mirroring the paper's
		// setup where the input is a well-spread global placement. (Fully
		// random instances can be unsolvable for ANY legalizer that keeps
		// placed cells in their relative order: a rail-parity band can
		// overfill even when global area fits.)
		// Stay in benchmark-like regimes (the paper's designs are wide,
		// many-row chips at ≤ 0.91 density): on tiny few-row chips above
		// ~0.7 density even a feasible instance can deadlock any
		// legalizer that fixes each placed cell's row forever, which MLL
		// does by design (§4).
		rows := 6 + rng.Intn(5)
		width := 40 + rng.Intn(40)
		d := dtest.Flat(rows, width)
		g := buildGrid(t, d)
		targetArea := int(float64(rows*width) * (0.3 + 0.3*rng.Float64()))
		area := 0
		for tries := 0; area < targetArea && tries < 4000; tries++ {
			w := 1 + rng.Intn(6)
			h := 1 + rng.Intn(min(3, rows))
			x := rng.Intn(width - w + 1)
			y := rng.Intn(rows - h + 1)
			if !g.FreeAt(x, y, w, h) {
				continue
			}
			id := dtest.Placed(d, w, h, x, y)
			if err := g.Insert(id); err != nil {
				t.Fatal(err)
			}
			area += w * h
		}
		// Perturb the input positions and unplace everything.
		for i := range d.Cells {
			c := &d.Cells[i]
			c.GX = float64(c.X) + rng.NormFloat64()*3
			c.GY = float64(c.Y) + rng.NormFloat64()*1
			c.Placed = false
		}
		cfg := testConfig()
		cfg.PowerAlign = trial%2 == 0
		cfg.Seed = int64(trial)
		l, err := NewLegalizer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Legalize(context.Background()); err != nil {
			t.Fatalf("trial %d (rows=%d width=%d area=%d): %v", trial, rows, width, area, err)
		}
		verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: cfg.PowerAlign})
		if err := l.G.CheckConsistency(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestWindowEscalationResolvesDenseInstance(t *testing.T) {
	// A chip whose only feasible double-height gap needs compaction beyond
	// the small window of the first rounds: the escalated windows of the
	// later rounds must find it.
	build := func() (*design.Design, design.CellID) {
		d := dtest.Flat(4, 120)
		g := segment.Build(d)
		if err := g.RebuildOccupancy(); err != nil {
			t.Fatal(err)
		}
		// Fill rows 0-1 almost completely with singles, leaving slack
		// spread as 1-site slivers: total free = 12 sites per row but no
		// contiguous 6-gap anywhere near the middle.
		for _, y := range []int{0, 1} {
			x := 0
			for x+9 <= 118 {
				id := dtest.Placed(d, 9, 1, x, y)
				if err := g.Insert(id); err != nil {
					t.Fatal(err)
				}
				x += 10 // 1 free site between neighbors
			}
		}
		// The target: a 6x2 VSS-bottom cell desired at the middle of rows 0-1.
		mi := dtest.Master(d, 6, 2, design.VSS)
		tgt := d.AddCell("tall", mi, 60, 0)
		return d, tgt
	}

	d, tgt := build()
	cfg := DefaultConfig()
	cfg.Rx, cfg.Ry = 8, 1
	cfg.MaxRounds = 12
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatalf("escalation should succeed: %v", err)
	}
	if !d.Cell(tgt).Placed {
		t.Fatal("target unplaced despite success")
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})
}
