package core_test

// Differential harness for the constraint plugins (docs/CONSTRAINTS.md):
// on every Table-1 benchmark, each plugin alone and all three composed
// must (a) produce byte-identical placements across worker counts,
// shard counts and both search modes — the filters and the admissible
// bound may change which candidates are examined, never the answer —
// and (b) yield final placements the plugins' own verify.Check oracles
// accept with zero violations.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/gp"
	"mrlegal/internal/verify"
)

// constraintSuite returns the plugin configurations the differential
// suite sweeps: each plugin alone, then all three composed. The fence
// covers the central ~2/3 of the die and confines cells 3+ rows tall,
// so every benchmark keeps enough member capacity to legalize.
func constraintSuite(t *testing.T, d *design.Design) []struct {
	name string
	set  *constraint.Set
} {
	t.Helper()
	rows := d.NumRows()
	span := d.Rows[0].Span
	w := span.Hi - span.Lo
	rect := geom.Rect{
		X: span.Lo + w/6,
		Y: rows / 6,
		W: w - 2*(w/6),
		H: rows - 2*(rows/6),
	}
	fence, err := constraint.NewFence(rect, 3)
	if err != nil {
		t.Fatal(err)
	}
	spacing, err := constraint.NewSpacing(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := constraint.NewTPL(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cons ...constraint.Constraint) *constraint.Set {
		s, err := constraint.NewSet(cons...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []struct {
		name string
		set  *constraint.Set
	}{
		{"fence", mk(fence)},
		{"spacing", mk(spacing)},
		{"tpl", mk(tpl)},
		{"composed", mk(fence, spacing, tpl)},
	}
}

// constrainedOutcome is one legalization run under a plugin set.
type constrainedOutcome struct {
	placement []byte
	failures  string
	filtered  int64
}

// legalizeConstrained runs one configuration and checks the plugin
// oracles: the final placement must carry zero constraint violations
// regardless of how many cells failed outright (failed cells stay
// unplaced; placed ones must obey every rule).
func legalizeConstrained(t *testing.T, d *design.Design, cfg core.Config, set *constraint.Set, tag string) constrainedOutcome {
	t.Helper()
	cfg.Constraints = set
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatalf("%s: grid inconsistent: %v", tag, err)
	}
	viols := verify.Check(d, verify.Options{
		RequirePlaced:  len(rep.Failed) == 0,
		PowerAlignment: cfg.PowerAlign,
		Extra:          set.Checkers(),
	}, 0)
	for _, v := range viols {
		t.Errorf("%s: %s", tag, v)
	}
	var fails bytes.Buffer
	for _, f := range rep.Failed {
		fmt.Fprintf(&fails, "%s\n", f)
	}
	return constrainedOutcome{
		placement: placementSnapshot(d),
		failures:  fails.String(),
		filtered:  l.Stats().ConstraintFiltered,
	}
}

// TestConstraintPluginsMatchAcrossModes is the differential suite: for
// every Table-1 benchmark × plugin configuration, the placement under
// workers ∈ {1, 4}, shards ∈ {1, 4} and the exhaustive sweep must be
// byte-identical, and every run must pass the plugin oracles clean.
func TestConstraintPluginsMatchAcrossModes(t *testing.T) {
	scale := 2500
	if testing.Short() {
		scale = 5000
	}
	for _, spec := range bengen.Table1Specs(scale) {
		t.Run(spec.Name, func(t *testing.T) {
			b := bengen.Generate(spec)
			gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
			for _, cs := range constraintSuite(t, b.D) {
				base := core.DefaultConfig()
				base.Seed = 3
				runs := []struct {
					tag string
					cfg core.Config
				}{}
				add := func(tag string, mut func(*core.Config)) {
					cfg := base
					mut(&cfg)
					runs = append(runs, struct {
						tag string
						cfg core.Config
					}{tag, cfg})
				}
				add(cs.name+"/w1", func(c *core.Config) { c.Workers = 1 })
				add(cs.name+"/w4", func(c *core.Config) { c.Workers = 4 })
				add(cs.name+"/s1", func(c *core.Config) { c.Shards = 1 })
				add(cs.name+"/s4", func(c *core.Config) { c.Shards = 4 })
				add(cs.name+"/w1-exhaustive", func(c *core.Config) {
					c.Workers = 1
					c.ExhaustiveSearch = true
				})
				var ref constrainedOutcome
				for i, r := range runs {
					out := legalizeConstrained(t, b.D.Clone(), r.cfg, cs.set, r.tag)
					if i == 0 {
						ref = out
						continue
					}
					if !bytes.Equal(out.placement, ref.placement) {
						t.Errorf("%s: placement differs from %s", r.tag, runs[0].tag)
					}
					if out.failures != ref.failures {
						t.Errorf("%s: failure set differs from %s:\n%svs:\n%s",
							r.tag, runs[0].tag, out.failures, ref.failures)
					}
				}
			}
		})
	}
}

// TestConstraintFiltersActuallyFire guards against a silently inert
// wiring: across the Table-1 sweep at least one configuration must
// reject candidates through the constraint filters, and a constrained
// run must differ from the unconstrained placement somewhere (rules
// that never bind would make the whole suite vacuous).
func TestConstraintFiltersActuallyFire(t *testing.T) {
	spec := bengen.Table1Specs(2500)[0]
	b := bengen.Generate(spec)
	gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	cfg.Workers = 1

	plain := legalizeWithWorkers(t, b.D.Clone(), cfg, 1)
	var filtered int64
	var diverged bool
	for _, cs := range constraintSuite(t, b.D) {
		out := legalizeConstrained(t, b.D.Clone(), cfg, cs.set, cs.name)
		filtered += out.filtered
		if !bytes.Equal(out.placement, plain.placement) {
			diverged = true
		}
	}
	if filtered == 0 {
		t.Error("no configuration ever filtered a candidate; constraint wiring looks inert")
	}
	if !diverged {
		t.Error("every constrained placement matched the unconstrained one; rules never bound")
	}
}

// TestConstraintSwapTakesEffect swaps the rule set on one live
// Legalizer, under an open session, and checks that every swap changes
// behaviour at the next call: a spacing set makes the next placement
// leave the gap and makes Session.Verify report a pair planted closer
// than the gap; swapping back to nil makes the next placement abut again
// and clears that report.
func TestConstraintSwapTakesEffect(t *testing.T) {
	const gap = 3
	d := dtest.Flat(1, 200)
	left := dtest.Placed(d, 10, 1, 0, 0)    // [0,10), against the die edge
	right := dtest.Placed(d, 10, 1, 100, 0) // [100,110)
	m := dtest.Master(d, 5, 1, d.RowBottomRail(0))
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(l)
	if err != nil {
		t.Fatal(err)
	}
	// insert places a new 5-site cell whose nearest free slot abuts a
	// neighbour's right edge at x, and returns where it landed.
	insert := func(tag string, x int) core.DeltaResult {
		t.Helper()
		rep, err := s.ApplyDelta(context.Background(), []core.Delta{{Op: core.DeltaInsert, Master: m, TX: float64(x)}})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return rep.Results[0]
	}

	planted := insert("no rules", 110)
	if planted.X != 110 {
		t.Fatalf("no rules: placed at x=%d, want 110 (abutting)", planted.X)
	}
	if vs := s.Verify(0); len(vs) != 0 {
		t.Fatalf("no rules: Verify reported %v", vs)
	}

	sp, err := constraint.NewSpacing(1, gap)
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.NewSet(sp)
	if err != nil {
		t.Fatal(err)
	}
	l.Cfg.Constraints = set
	if got := insert("spacing", 10); got.X != 10+gap {
		t.Fatalf("spacing: placed at x=%d, want %d (gap %d after the neighbour)", got.X, 10+gap, gap)
	}
	vs := s.Verify(0)
	if len(vs) != 1 || len(vs[0].Cells) != 2 || vs[0].Cells[0] != right || vs[0].Cells[1] != planted.Cell {
		t.Fatalf("spacing: Verify = %v, want one violation for cells %d and %d", vs, right, planted.Cell)
	}

	l.Cfg.Constraints = nil
	if vs := s.Verify(0); len(vs) != 0 {
		t.Fatalf("back to nil: Verify still reported %v", vs)
	}
	if got := insert("back to nil", 10+gap+5); got.X != 10+gap+5 {
		t.Fatalf("back to nil: placed at x=%d, want %d (abutting)", got.X, 10+gap+5)
	}
	if c := d.Cell(left); c.X != 0 || !c.Placed {
		t.Fatalf("left neighbour moved to x=%d", c.X)
	}
}
