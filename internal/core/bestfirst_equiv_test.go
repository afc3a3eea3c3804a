package core_test

// Full-pipeline equivalence between the best-first insertion-point search
// (the default) and the exhaustive sweep: on every Table-1 benchmark the
// two modes must produce byte-identical placements, failure sets and
// verifier output — the search may only change how much work is done,
// never the answer.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/gp"
	"mrlegal/internal/verify"
)

// placementSnapshot serializes every cell's placement state.
func placementSnapshot(d *design.Design) []byte {
	var buf bytes.Buffer
	for i := range d.Cells {
		c := &d.Cells[i]
		fmt.Fprintf(&buf, "%d %d %d %v %v\n", c.ID, c.X, c.Y, c.Placed, c.Orient)
	}
	return buf.Bytes()
}

// runOutcome captures everything the equivalence tests compare.
type runOutcome struct {
	placement  []byte
	stats      core.Stats
	failures   string
	violations string
	rounds     int
}

// legalizeOutcome legalizes d under cfg and records the run's outcome.
func legalizeOutcome(t *testing.T, d *design.Design, cfg core.Config) runOutcome {
	t.Helper()
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatalf("grid inconsistent: %v", err)
	}
	var fails bytes.Buffer
	for _, f := range rep.Failed {
		fmt.Fprintf(&fails, "%s\n", f)
	}
	var viols bytes.Buffer
	for _, v := range verify.Check(d, verify.Options{
		RequirePlaced:  len(rep.Failed) == 0,
		PowerAlignment: cfg.PowerAlign,
	}, 0) {
		fmt.Fprintf(&viols, "%s\n", v)
	}
	return runOutcome{
		placement:  placementSnapshot(d),
		stats:      l.Stats(),
		failures:   fails.String(),
		violations: viols.String(),
		rounds:     rep.Rounds,
	}
}

// neutralizeSearchCounters zeroes the stats fields that legitimately
// differ between the two search modes (evaluation and prune activity),
// leaving every outcome-describing counter for the == comparison.
func neutralizeSearchCounters(s core.Stats) core.Stats {
	s.InsertionPoints = 0
	s.CandidatesPruned = 0
	s.SearchNodesCut = 0
	s.WindowsPruned = 0
	return s
}

func TestBestFirstMatchesExhaustiveOnTable1(t *testing.T) {
	scale := 1500
	if testing.Short() {
		scale = 4000
	}
	for _, spec := range bengen.Table1Specs(scale) {
		t.Run(spec.Name, func(t *testing.T) {
			b := bengen.Generate(spec)
			gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
			cfg := core.DefaultConfig()
			cfg.Seed = 3
			exCfg := cfg
			exCfg.ExhaustiveSearch = true
			search := legalizeOutcome(t, b.D.Clone(), cfg)
			exh := legalizeOutcome(t, b.D.Clone(), exCfg)
			if !bytes.Equal(search.placement, exh.placement) {
				t.Error("placements differ between best-first and exhaustive search")
			}
			if search.failures != exh.failures {
				t.Errorf("failure sets differ:\nbest-first:\n%sexhaustive:\n%s", search.failures, exh.failures)
			}
			if search.violations != exh.violations {
				t.Errorf("verifier output differs:\nbest-first:\n%sexhaustive:\n%s", search.violations, exh.violations)
			}
			if search.rounds != exh.rounds {
				t.Errorf("rounds differ: best-first %d vs exhaustive %d", search.rounds, exh.rounds)
			}
			if ss, es := neutralizeSearchCounters(search.stats), neutralizeSearchCounters(exh.stats); ss != es {
				t.Errorf("outcome stats differ:\nbest-first %+v\nexhaustive %+v", ss, es)
			}
			if search.stats.InsertionPoints > exh.stats.InsertionPoints {
				t.Errorf("best-first evaluated more candidates (%d) than exhaustive (%d)",
					search.stats.InsertionPoints, exh.stats.InsertionPoints)
			}
		})
	}
}
