package core

// Admissibility harness for the constraint plugins' lower-bound terms
// (docs/CONSTRAINTS.md §"Bound admissibility"). Two properties over
// randomized regions and plugin sets:
//
//  1. Geometric admissibility: Set.Bound(cls, w, tx) never exceeds
//     |tx - x| for ANY x inside the set's own NarrowX clamp — the
//     candidate positions the filters admit are exactly where the
//     bound must stay below the realized horizontal cost.
//  2. Search exactness: with a constraint set armed, the best-first
//     insertion-point search must reproduce the exhaustive sweep's
//     answer bit-for-bit (cost, x, insertion point, tie-break) while
//     evaluating no more candidates. An inadmissible bound shows up
//     here as a pruned optimum, i.e. a divergence.
//
// CI runs FuzzConstraintLowerBound as a short smoke
// (make fuzz-constraints); the property test walks the seed corpus on
// every plain `go test`.

import (
	"math"
	"math/rand"
	"testing"

	"mrlegal/internal/constraint"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
)

// fuzzConstraintSet derives a non-empty plugin set from a fuzz seed:
// mask selects a subset of {fence, spacing, tpl} and rng draws the
// parameters, all clamped into the small ranges randomLegalDesign's
// dies make meaningful.
func fuzzConstraintSet(t testing.TB, rng *rand.Rand, mask uint8, rows, width int) *constraint.Set {
	t.Helper()
	mask = mask%7 + 1 // 1..7: at least one plugin
	var cons []constraint.Constraint
	if mask&1 != 0 {
		x := rng.Intn(width / 2)
		w := 3 + rng.Intn(width-x-3)
		y := rng.Intn(rows)
		h := 1 + rng.Intn(rows-y)
		f, err := constraint.NewFence(geom.Rect{X: x, Y: y, W: w, H: h}, 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		cons = append(cons, f)
	}
	if mask&2 != 0 {
		s, err := constraint.NewSpacing(1+rng.Intn(4), 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		cons = append(cons, s)
	}
	if mask&4 != 0 {
		p, err := constraint.NewTPL(1 + rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		cons = append(cons, p)
	}
	set, err := constraint.NewSet(cons...)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// checkConstraintLowerBound builds a random legal region plus a random
// constraint set and asserts both admissibility properties.
func checkConstraintLowerBound(t testing.TB, seed int64, mask uint8, exact bool) {
	d, _ := randomLegalDesign(seed)
	rng := rand.New(rand.NewSource(seed*999983 + 11))
	rows := d.NumRows()
	width := d.Rows[0].Span.Hi
	set := fuzzConstraintSet(t, rng, mask, rows, width)

	w := 1 + rng.Intn(5)
	h := 1 + rng.Intn(min(3, rows))
	tx := rng.Float64() * 45
	ty := rng.Float64() * float64(rows)
	id := dtest.Unplaced(d, w, h, tx, ty)

	cfg := DefaultConfig()
	cfg.ExactEval = exact
	cfg.PowerAlign = false
	cfg.Constraints = set
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := l.D.Cell(id)
	cls := set.Class(l.D.MasterOf(id), c.W, c.H)

	// Property 1: the bound never exceeds the horizontal cost of any
	// x the set's own clamp admits.
	lb := set.Bound(cls, c.W, tx)
	if lb < 0 {
		t.Fatalf("seed %d mask %d: negative bound %v", seed, mask, lb)
	}
	lo, hi := set.NarrowX(cls, c.W)
	for x := max(lo, -2*width); x <= min(hi, 3*width); x++ {
		if realized := math.Abs(tx - float64(x)); lb > realized+1e-9 {
			t.Fatalf("seed %d mask %d: bound %v exceeds |tx-x| = %v at admitted x=%d (tx=%v, clamp [%d, %d])",
				seed, mask, lb, realized, x, tx, lo, hi)
		}
	}

	// Property 2: best-first ≡ exhaustive under the armed set.
	sc := l.sc
	run := func(exhaustive bool) bestFirstOutcome {
		l.Cfg.ExhaustiveSearch = exhaustive
		l.resetCancel(sc)
		sc.stats = Stats{}
		l.armConstraints(sc, c, tx)
		r := sc.extract(l.G, mllWindow(c, tx, ty, 50, rows))
		ip, ev := l.bestInsertionPoint(r, c, tx, ty)
		out := bestFirstOutcome{found: ip != nil, evals: sc.stats.InsertionPoints}
		if ip != nil {
			out.cost, out.x, out.key = ev.Cost, ev.X, ipKey(ip)
		}
		return out
	}
	exh := run(true)
	bf := run(false)
	if exh.found != bf.found {
		t.Fatalf("seed %d mask %d exact=%v: exhaustive found=%v, best-first found=%v",
			seed, mask, exact, exh.found, bf.found)
	}
	if !exh.found {
		return
	}
	if bf.cost != exh.cost || bf.x != exh.x || bf.key != exh.key {
		t.Fatalf("seed %d mask %d exact=%v: best-first diverged under constraints:\nexhaustive cost=%v x=%d ip=%s\nbest-first cost=%v x=%d ip=%s",
			seed, mask, exact, exh.cost, exh.x, exh.key, bf.cost, bf.x, bf.key)
	}
	if bf.evals > exh.evals {
		t.Fatalf("seed %d mask %d exact=%v: best-first evaluated %d candidates, exhaustive only %d",
			seed, mask, exact, bf.evals, exh.evals)
	}

	// The winner is itself an admitted candidate: its realized
	// horizontal cost must dominate the bound.
	if realized := math.Abs(tx - float64(exh.x)); lb > realized+1e-9 {
		t.Fatalf("seed %d mask %d: bound %v exceeds winner's realized horizontal cost %v (x=%d, tx=%v)",
			seed, mask, lb, realized, exh.x, tx)
	}
}

// TestConstraintLowerBoundProperty walks the seed corpus on every plain
// test run, covering all seven plugin subsets and both eval modes.
func TestConstraintLowerBoundProperty(t *testing.T) {
	trials := int64(60)
	if testing.Short() {
		trials = 20
	}
	for seed := int64(0); seed < trials; seed++ {
		for mask := uint8(1); mask <= 7; mask++ {
			for _, exact := range []bool{false, true} {
				checkConstraintLowerBound(t, seed, mask, exact)
			}
		}
	}
}

// FuzzConstraintLowerBound fuzzes the admissibility properties over the
// seed/subset/mode space. CI runs it with a short -fuzztime smoke
// budget via `make fuzz-constraints`.
func FuzzConstraintLowerBound(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%7+1), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, mask uint8, exact bool) {
		checkConstraintLowerBound(t, seed, mask, exact)
	})
}
