package core

// White-box tests for the smaller surfaces of the constraint wiring:
// the NewLegalizer configuration guards, the direct-placement probe
// (constraintsOKAt), the exported IntervalAt's constraint clamp, and
// the allocation-free enumeration walker. The differential harness
// (constraint_equiv_test.go, constraint_bound_test.go) proves the
// end-to-end properties; these pin the individual branch behaviors.

import (
	"testing"

	"mrlegal/internal/constraint"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
)

// refusingSolver is a LocalSolver stub that never finds a solution.
type refusingSolver struct{}

func (refusingSolver) SelectInsertionPoint(r *Region, c *design.Cell, tx, ty float64, allowRow func(int) bool) (*InsertionPoint, int, bool) {
	return nil, 0, false
}

func coverSet(t *testing.T, cons ...constraint.Constraint) *constraint.Set {
	t.Helper()
	set, err := constraint.NewSet(cons...)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func coverSpacing(t *testing.T, minW, gap int) *constraint.Spacing {
	t.Helper()
	s, err := constraint.NewSpacing(minW, gap)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// NewLegalizer must reject configurations the engine cannot honor:
// plugins ride the built-in enumeration, so an external Solver cannot
// be combined with a non-empty constraint set; a corrupt incoming
// placement surfaces as an error, not a broken grid.
func TestNewLegalizerConfigGuards(t *testing.T) {
	d := dtest.Flat(2, 20)
	cfg := DefaultConfig()
	cfg.Solver = refusingSolver{}
	cfg.Constraints = coverSet(t, coverSpacing(t, 1, 1))
	if _, err := NewLegalizer(d, cfg); err == nil {
		t.Fatal("NewLegalizer accepted an external Solver combined with constraint plugins")
	}

	bad := dtest.Flat(1, 10)
	dtest.Placed(bad, 3, 1, 9, 0) // hangs off the right die edge
	if _, err := NewLegalizer(bad, DefaultConfig()); err == nil {
		t.Fatal("NewLegalizer accepted a placement outside the die")
	}
}

// Direct-placement probe: constraintsOKAt must veto a probed-free
// position that breaks a pairwise gap, skip fixed cells and the target
// itself, apply the target clamp, and stay neutral without plugins.
func TestConstraintsOKAtBranches(t *testing.T) {
	d := dtest.Flat(4, 40)
	wideLeft := dtest.Placed(d, 3, 1, 0, 1) // class 1, [0,3)
	dtest.Placed(d, 2, 1, 8, 1)             // class 0 (w < minw), [8,10)
	fixed := dtest.Placed(d, 3, 1, 14, 1)   // wall: gaps not enforced across it
	d.Cell(fixed).Fixed = true
	dtest.Placed(d, 3, 1, 20, 1) // class 1, [20,23)
	target := dtest.Unplaced(d, 3, 1, 11, 1)

	cfg := DefaultConfig()
	cfg.Constraints = coverSet(t, coverSpacing(t, 3, 2)) // wide cells need 2 empty sites
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := l.D.Cell(target)
	sc := l.sc
	l.armConstraints(sc, c, 11)

	// Passing probe: the only in-window neighbor is the narrow class-0
	// cell (pairwise gap 0) and the fixed wall, which is skipped.
	if !l.constraintsOKAt(sc, c, 11, 1) {
		t.Fatal("probe at x=11 vetoed: class-0 neighbor needs no gap and fixed cells are walls")
	}
	// One empty site to the wide left neighbor: gap 2 violated.
	filtered := sc.stats.ConstraintFiltered
	if l.constraintsOKAt(sc, c, 4, 1) {
		t.Fatal("probe at x=4 accepted: one site to a wide neighbor violates gap=2")
	}
	// One empty site to the wide right neighbor: also vetoed.
	if l.constraintsOKAt(sc, c, 16, 1) {
		t.Fatal("probe at x=16 accepted: one site to a wide right neighbor violates gap=2")
	}
	if got := sc.stats.ConstraintFiltered; got != filtered+2 {
		t.Fatalf("ConstraintFiltered = %d after two vetoes, want %d", got, filtered+2)
	}
	// The target clamp applies before any neighbor scan.
	sc.conTLo, sc.conTHi = 1000, 2000
	if l.constraintsOKAt(sc, c, 11, 1) {
		t.Fatal("probe outside the target x-clamp accepted")
	}
	l.armConstraints(sc, c, 11) // restore the real clamp

	// A placed cell probing its own position must skip itself.
	wl := l.D.Cell(wideLeft)
	l.armConstraints(sc, wl, 0)
	if !l.constraintsOKAt(sc, wl, wl.X, wl.Y) {
		t.Fatal("cell's own footprint vetoed: the scan must skip the probing cell")
	}

	// No armed set: always OK, no counters.
	sc.cons = nil
	if !l.constraintsOKAt(sc, c, 4, 1) {
		t.Fatal("nil constraint set vetoed a probe")
	}

	// Gap-free plugins (MaxGap 0) skip the neighbor scan entirely.
	fenceOnly := DefaultConfig()
	f, err := constraint.NewFence(geom.Rect{X: 0, Y: 0, W: 40, H: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fenceOnly.Constraints = coverSet(t, f)
	lf, err := NewLegalizer(d, fenceOnly)
	if err != nil {
		t.Fatal(err)
	}
	scf := lf.sc
	cf := lf.D.Cell(target)
	lf.armConstraints(scf, cf, 11)
	if !lf.constraintsOKAt(scf, cf, 4, 1) {
		t.Fatal("fence-only set (MaxGap 0) vetoed a row-admitted, clamped probe")
	}
}

// IntervalAt must mirror buildIntervals under an armed set: pairwise
// gaps against both neighbors, the target NarrowX clamp, and the same
// invalid-input rejections external solvers rely on.
func TestIntervalAtConstraintClamp(t *testing.T) {
	d := dtest.Flat(2, 30)
	dtest.Placed(d, 3, 1, 4, 0)  // A, [4,7)
	dtest.Placed(d, 3, 1, 12, 0) // B, [12,15)
	target := dtest.Unplaced(d, 3, 1, 10, 0)

	cfg := DefaultConfig()
	cfg.PowerAlign = false
	cfg.Constraints = coverSet(t, coverSpacing(t, 3, 2))
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := l.D.Cell(target)
	sc := l.sc
	l.resetCancel(sc)
	l.armConstraints(sc, c, 10)
	r := sc.extract(l.G, mllWindow(c, 10, 0, 50, 2))
	rel := 0 - r.Window().Y

	conIv, ok := r.IntervalAt(rel, 1, c.W) // the A..B gap
	if !ok {
		t.Fatal("constrained A..B interval rejected")
	}
	if conIv.Left == design.NoCell || conIv.Right == design.NoCell {
		t.Fatalf("A..B interval missing neighbors: %+v", conIv)
	}
	// Boundary gaps exist too (no neighbor on the open side).
	if _, ok := r.IntervalAt(rel, 0, c.W); !ok {
		t.Fatal("left-boundary interval rejected")
	}
	if _, ok := r.IntervalAt(rel, 2, c.W); !ok {
		t.Fatal("right-boundary interval rejected")
	}

	// Same gap without the armed set: the constrained interval must be
	// exactly the unconstrained one shrunk by the pairwise gap (2 sites
	// on each side — both neighbors are wide, class 1).
	sc.cons = nil
	freeIv, ok := r.IntervalAt(rel, 1, c.W)
	if !ok {
		t.Fatal("unconstrained A..B interval rejected")
	}
	if conIv.Lo != freeIv.Lo+2 || conIv.Hi != freeIv.Hi-2 {
		t.Fatalf("constraint gaps not applied: unconstrained [%d,%d], constrained [%d,%d], want both ends shrunk by 2",
			freeIv.Lo, freeIv.Hi, conIv.Lo, conIv.Hi)
	}
	if conIv.Len() != freeIv.Len()-4 {
		t.Fatalf("Len() = %d, want %d", conIv.Len(), freeIv.Len()-4)
	}
	l.armConstraints(sc, c, 10)

	// An empty intersection with the target clamp rejects the interval.
	sc.conTLo, sc.conTHi = 1000, 2000
	if _, ok := r.IntervalAt(rel, 1, c.W); ok {
		t.Fatal("interval accepted outside the target x-clamp")
	}
	l.armConstraints(sc, c, 10)

	// Invalid inputs.
	if _, ok := r.IntervalAt(-1, 0, c.W); ok {
		t.Fatal("negative row accepted")
	}
	if _, ok := r.IntervalAt(rel, 99, c.W); ok {
		t.Fatal("out-of-range gap index accepted")
	}
	if _, ok := r.IntervalAt(rel, 1, 28); ok {
		t.Fatal("negative-length interval accepted")
	}

	// The allocation-free walker yields exactly the cloning
	// enumeration's points, and honors an early stop.
	pts := r.EnumerateInsertionPoints(c.W, c.H, nil)
	if len(pts) == 0 {
		t.Fatal("no insertion points in an open region")
	}
	visited := 0
	r.VisitInsertionPoints(c.W, c.H, nil, func(ip *InsertionPoint) bool {
		visited++
		return true
	})
	if visited != len(pts) {
		t.Fatalf("VisitInsertionPoints yielded %d points, EnumerateInsertionPoints %d", visited, len(pts))
	}
	visited = 0
	r.VisitInsertionPoints(c.W, c.H, nil, func(ip *InsertionPoint) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Fatalf("early stop visited %d points, want 1", visited)
	}
}
