package core_test

// Full-pipeline equivalence between the best-first insertion-point search
// (the default) and the exhaustive sweep: on every Table-1 benchmark and
// at several worker counts, the two modes must produce byte-identical
// placements, failure sets and verifier output — the search may only
// change how much work is done, never the answer.

import (
	"bytes"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/gp"
)

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
			for _, workers := range []int{1, 4} {
				search := legalizeWithWorkers(t, b.D.Clone(), cfg, workers)
				exh := legalizeWithWorkers(t, b.D.Clone(), exCfg, workers)
				if !bytes.Equal(search.placement, exh.placement) {
					t.Errorf("workers=%d: placements differ between best-first and exhaustive search", workers)
				}
				if search.failures != exh.failures {
					t.Errorf("workers=%d: failure sets differ:\nbest-first:\n%sexhaustive:\n%s",
						workers, search.failures, exh.failures)
				}
				if search.violations != exh.violations {
					t.Errorf("workers=%d: verifier output differs:\nbest-first:\n%sexhaustive:\n%s",
						workers, search.violations, exh.violations)
				}
				if search.rounds != exh.rounds {
					t.Errorf("workers=%d: rounds differ: best-first %d vs exhaustive %d",
						workers, search.rounds, exh.rounds)
				}
				if ss, es := neutralizeSearchCounters(search.stats), neutralizeSearchCounters(exh.stats); ss != es {
					t.Errorf("workers=%d: outcome stats differ:\nbest-first %+v\nexhaustive %+v", workers, ss, es)
				}
				if search.stats.InsertionPoints > exh.stats.InsertionPoints {
					t.Errorf("workers=%d: best-first evaluated more candidates (%d) than exhaustive (%d)",
						workers, search.stats.InsertionPoints, exh.stats.InsertionPoints)
				}
			}
		})
	}
}
