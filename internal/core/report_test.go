package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/dtest"
	"mrlegal/internal/gp"
)

// TestSummaryReportsEvaluated checks that Report.Summary carries the
// run's evaluated insertion-point count in both search modes, and the
// prune counters only where they are nonzero: the exhaustive sweep
// prunes nothing, the best-first search on a Table-1 design does. It also
// names a failed cell once, on five width-1 cells in one 4-site row.
func TestSummaryReportsEvaluated(t *testing.T) {
	spec := bengen.Table1Specs(2000)[0]
	for _, exhaustive := range []bool{false, true} {
		b := bengen.Generate(spec)
		gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
		cfg := DefaultConfig()
		cfg.ExhaustiveSearch = exhaustive
		l, err := NewLegalizer(b.D, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := l.LegalizeBestEffort(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.InsertionPoints == 0 {
			t.Fatalf("%s exhaustive=%v: no insertion point evaluated", spec.Name, exhaustive)
		}
		sum := rep.Summary(0)
		if want := fmt.Sprintf("search: %d evaluated", rep.Stats.InsertionPoints); !strings.Contains(sum, want) {
			t.Fatalf("%s exhaustive=%v: summary lacks %q:\n%s", spec.Name, exhaustive, want, sum)
		}
		if pruned := strings.Contains(sum, "pruned"); pruned == exhaustive {
			t.Fatalf("%s exhaustive=%v: prune counters printed = %v:\n%s", spec.Name, exhaustive, pruned, sum)
		}
	}

	d := dtest.Flat(1, 4)
	for _, x := range []float64{0, 1, 2, 3, 3} {
		dtest.Unplaced(d, 1, 1, x, 0)
	}
	l, err := NewLegalizer(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 {
		t.Fatalf("%d cells failed, want 1", len(rep.Failed))
	}
	f := rep.Failed[0]
	sum := rep.Summary(0)
	if n := strings.Count(sum, fmt.Sprintf("cell %d (%s)", f.Cell, f.Name)); n != 1 {
		t.Fatalf("summary names the failed cell %d times, want once:\n%s", n, sum)
	}
}
