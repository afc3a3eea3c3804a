package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
)

// TestLegalizeDeterminismOnBenchmark is the regression gate for seeded
// reproducibility: two runs with the same Cfg.Seed on the same generated
// benchmark must produce byte-identical placements and identical Stats.
func TestLegalizeDeterminismOnBenchmark(t *testing.T) {
	spec := bengen.Spec{Name: "det", NumCells: 600, Density: 0.65, Seed: 42}
	run := func() ([]byte, core.Stats) {
		b := bengen.Generate(spec)
		cfg := core.DefaultConfig()
		cfg.Seed = 5
		l, err := core.NewLegalizer(b.D, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Legalize(context.Background()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for i := range b.D.Cells {
			c := &b.D.Cells[i]
			fmt.Fprintf(&buf, "%d %d %d %v %v\n", c.ID, c.X, c.Y, c.Placed, c.Orient)
		}
		return buf.Bytes(), l.Stats()
	}
	p1, s1 := run()
	p2, s2 := run()
	if !bytes.Equal(p1, p2) {
		t.Fatal("placements differ between identically-seeded runs")
	}
	if s1 != s2 {
		t.Fatalf("stats differ between identically-seeded runs:\n%+v\n%+v", s1, s2)
	}
}
