package detailed

import (
	"context"
	"math"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/gp"
	"mrlegal/internal/netlist"
	"mrlegal/internal/verify"
)

func preparedLegal(t *testing.T, cells int, density float64, seed int64) (*core.Legalizer, *netlist.Netlist) {
	t.Helper()
	b := bengen.Generate(bengen.Spec{Name: "dp", NumCells: cells, Density: density, Seed: seed})
	gp.Place(b.D, b.NL, gp.Config{Seed: seed})
	l, err := core.NewLegalizer(b.D, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	return l, b.NL
}

func TestOptimizeImprovesHPWL(t *testing.T) {
	l, nl := preparedLegal(t, 1200, 0.5, 3)
	st := Optimize(l, nl, Config{})
	if st.HPWLAfter >= st.HPWLBefore {
		t.Fatalf("no improvement: before %v after %v (moved %d)", st.HPWLBefore, st.HPWLAfter, st.Moved)
	}
	if st.Moved == 0 {
		t.Fatal("no moves executed")
	}
	verify.MustLegal(l.D, verify.Options{RequirePlaced: true, PowerAlignment: true})
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The incremental cache must agree with a full recomputation.
	if got, want := st.HPWLAfter, nl.HPWL(l.D); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("cache drifted: %v vs %v", got, want)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	run := func() float64 {
		l, nl := preparedLegal(t, 600, 0.45, 7)
		st := Optimize(l, nl, Config{Passes: 2})
		return st.HPWLAfter
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("optimizer not deterministic: %v vs %v", a, b)
	}
}

func TestOptimizeRespectsMaxDist(t *testing.T) {
	l, nl := preparedLegal(t, 600, 0.45, 9)
	st := Optimize(l, nl, Config{Passes: 1, MaxDist: 0.0001, MinGain: 1})
	if st.Attempted != 0 {
		t.Fatalf("MaxDist ignored: %d attempts", st.Attempted)
	}
}

func TestSelfGainMatchesRecompute(t *testing.T) {
	d := dtest.Flat(4, 60)
	a := dtest.Placed(d, 2, 1, 5, 0)
	b := dtest.Placed(d, 2, 1, 40, 2)
	c := dtest.Placed(d, 2, 1, 20, 1)
	nl := netlist.New()
	nl.AddNet("n1", netlist.Pin{Cell: a, DX: 1}, netlist.Pin{Cell: c, DX: 1})
	nl.AddNet("n2", netlist.Pin{Cell: b, DX: 1}, netlist.Pin{Cell: c, DX: 1, DY: 0.5})
	nl.BuildIndex(len(d.Cells))

	before := nl.HPWL(d)
	tx, ty := 30.0, 1.0
	gain := selfGain(d, nl, c, tx, ty)
	// Apply the exact move and recompute.
	d.Place(c, 30, 1)
	after := nl.HPWL(d)
	if math.Abs((before-after)-gain) > 1e-9 {
		t.Fatalf("selfGain=%v, actual=%v", gain, before-after)
	}
}

func TestMedianTarget(t *testing.T) {
	d := dtest.Flat(4, 60)
	a := dtest.Placed(d, 2, 1, 0, 0)
	b := dtest.Placed(d, 2, 1, 10, 1)
	c := dtest.Placed(d, 2, 1, 50, 3)
	m := dtest.Placed(d, 2, 1, 30, 2)
	nl := netlist.New()
	nl.AddNet("n", netlist.Pin{Cell: a}, netlist.Pin{Cell: b}, netlist.Pin{Cell: c}, netlist.Pin{Cell: m})
	nl.BuildIndex(len(d.Cells))
	tx, ty, ok := medianTarget(d, nl, m)
	if !ok {
		t.Fatal("no target")
	}
	// Median of {0,10,50} = 10 (x), {0,1,3} = 1 (y); minus half cell width.
	if tx != 9 || ty != 0.5 {
		t.Fatalf("target = (%v,%v), want (9, 0.5)", tx, ty)
	}
	lone := dtest.Placed(d, 2, 1, 5, 0)
	if _, _, ok := medianTarget(d, nl, lone); ok {
		t.Fatal("unconnected cell should have no target")
	}
}

func TestHPWLCacheUpdates(t *testing.T) {
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 2, 1, 0, 0)
	b := dtest.Placed(d, 2, 1, 10, 0)
	nl := netlist.New()
	nl.AddNet("n", netlist.Pin{Cell: a}, netlist.Pin{Cell: b})
	nl.BuildIndex(len(d.Cells))
	c := newHPWLCache(d, nl)
	if c.Total() != nl.HPWL(d) {
		t.Fatal("initial cache wrong")
	}
	d.Place(b, 20, 0)
	c.update(b)
	if math.Abs(c.Total()-nl.HPWL(d)) > 1e-9 {
		t.Fatalf("cache after update %v, want %v", c.Total(), nl.HPWL(d))
	}
	_ = design.NoCell
}

func TestOptimizeSwaps(t *testing.T) {
	l, nl := preparedLegal(t, 1000, 0.5, 21)
	before := nl.HPWL(l.D)
	st := OptimizeSwaps(l, nl, 0)
	if st.Attempted == 0 {
		t.Fatal("no swaps attempted")
	}
	if st.HPWLAfter > before+1e-9 {
		t.Fatalf("swaps made HPWL worse: %v → %v", before, st.HPWLAfter)
	}
	if math.Abs(st.HPWLAfter-nl.HPWL(l.D)) > 1e-6*st.HPWLAfter {
		t.Fatal("swap cache drifted from true HPWL")
	}
	verify.MustLegal(l.D, verify.Options{RequirePlaced: true, PowerAlignment: true})
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTrySwapRevertsOnNoGain(t *testing.T) {
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 3, 1, 0, 0)
	b := dtest.Placed(d, 3, 1, 30, 0)
	c := dtest.Placed(d, 3, 1, 33, 0)
	nl := netlist.New()
	// a—b are connected; swapping b and c moves b away → no gain.
	nl.AddNet("n", netlist.Pin{Cell: a}, netlist.Pin{Cell: b})
	nl.BuildIndex(len(d.Cells))
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := newHPWLCache(d, nl)
	if trySwap(l, cache, b, c) {
		t.Fatal("swap should not be kept")
	}
	if d.Cell(b).X != 30 || d.Cell(c).X != 33 {
		t.Fatal("revert did not restore positions")
	}
	// Swapping a and b IS an improvement? a at 0, b at 30, net connects
	// them: swapping the two endpoints leaves HPWL identical → rejected.
	if trySwap(l, cache, a, b) {
		t.Fatal("symmetric swap should be rejected (no strict gain)")
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true})
}

func TestTrySwapParityGuard(t *testing.T) {
	d := dtest.Flat(4, 40)
	// Two double-height cells on different-parity rows.
	a := dtest.Placed(d, 3, 2, 0, 0)
	b := dtest.Placed(d, 3, 2, 20, 1)
	nl := netlist.New()
	nl.AddNet("n", netlist.Pin{Cell: a}, netlist.Pin{Cell: b})
	nl.BuildIndex(len(d.Cells))
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := newHPWLCache(d, nl)
	if trySwap(l, cache, a, b) {
		t.Fatal("parity-violating swap accepted")
	}
}

// TestTrySwapConstraintClassGuard: two equal-footprint cells of different
// triple-patterning colors must not trade places. On one 20-site row
// under tpl:sep=2, c1 (INV) sits at x 0, p (BUF) at 2 and q (INV) at 10,
// and nets pull q toward x 2 and p toward x 11. Swapping p and q would
// cut HPWL but leave q right of the same-colored c1 with no gap.
func TestTrySwapConstraintClassGuard(t *testing.T) {
	d := dtest.Flat(1, 20)
	rail := d.RowBottomRail(0)
	inv := d.AddMaster(design.Master{Name: "INV", Width: 2, Height: 1, BottomRail: rail})
	buf := d.AddMaster(design.Master{Name: "BUF", Width: 2, Height: 1, BottomRail: rail})
	place := func(name string, m, x int) design.CellID {
		id := d.AddCell(name, m, float64(x), 0)
		d.Place(id, x, 0)
		return id
	}
	place("c1", inv, 0)
	p := place("p", buf, 2)
	q := place("q", inv, 10)
	nl := netlist.New()
	nl.AddNet("toP", netlist.Pin{Cell: p}, netlist.Pin{Cell: design.NoCell, DX: 12})
	nl.AddNet("toQ", netlist.Pin{Cell: q}, netlist.Pin{Cell: design.NoCell, DX: 3})
	nl.AddNet("pq", netlist.Pin{Cell: p}, netlist.Pin{Cell: q})
	nl.BuildIndex(len(d.Cells))

	cons, err := constraint.Parse("tpl:sep=2")
	if err != nil {
		t.Fatal(err)
	}
	if cons.Class(&d.Lib[inv], 2, 1) == cons.Class(&d.Lib[buf], 2, 1) {
		t.Fatal("INV and BUF share a color; the design needs two")
	}
	cfg := core.DefaultConfig()
	cfg.Constraints = cons
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := verify.Options{RequirePlaced: true, PowerAlignment: true, Extra: cons.Checkers()}
	if vs := verify.Check(d, opt, 0); len(vs) > 0 {
		t.Fatalf("design illegal before the pass: %v", vs)
	}
	OptimizeSwaps(l, nl, 0)
	if vs := verify.Check(d, opt, 0); len(vs) > 0 {
		t.Fatalf("OptimizeSwaps broke the tpl rule: %v", vs)
	}
	if d.Cell(p).X != 2 || d.Cell(q).X != 10 {
		t.Fatalf("p at %d, q at %d: cells of two colors swapped", d.Cell(p).X, d.Cell(q).X)
	}
}
