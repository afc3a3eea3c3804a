package experiments

import (
	"context"
	"math/rand"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
)

// ecoDeltas builds a deterministic perturbation batch: n distinct cells
// moved to jittered targets near their legal positions (the classic ECO
// shape — local engineering changes, not a re-placement).
// TestGoldenSessions builds its batches with it, so golden_sessions.txt
// depends on its rng stream.
func ecoDeltas(d *design.Design, n int, seed int64) []core.Delta {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]design.CellID, 0, len(d.Cells))
	for i := range d.Cells {
		if !d.Cells[i].Fixed && !d.Cells[i].Dead {
			ids = append(ids, design.CellID(i))
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if n > len(ids) {
		n = len(ids)
	}
	deltas := make([]core.Delta, 0, n)
	for _, id := range ids[:n] {
		c := &d.Cells[id]
		deltas = append(deltas, core.Delta{
			Op:   core.DeltaMove,
			Cell: id,
			TX:   float64(c.X) + float64(rng.Intn(41)-20),
			TY:   float64(c.Y) + float64(rng.Intn(9)-4),
		})
	}
	return deltas
}

// TestEcoEquivalence is the CI equivalence smoke (docs/PERFORMANCE.md
// §9): on a Table-1 subset, an ECO session built over a legalized design
// must stay legal after a mixed delta batch. It also calls the
// fixed-point oracle, which holds by construction (a full pass places
// only unplaced cells, and a session leaves none); TestGoldenSessions
// pins which legal placement each batch of a session stream produces.
func TestEcoEquivalence(t *testing.T) {
	specs := bengen.Table1Specs(800)
	subset := map[string]bool{"fft_a": true, "pci_bridge32_b": true}
	for _, spec := range specs {
		if !subset[spec.Name] {
			continue
		}
		name := spec.Name
		d := bengen.Generate(spec).D
		l, err := core.NewLegalizer(d, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
			t.Fatalf("%s: legalize: %v", name, err)
		}
		ses, err := core.NewSession(l)
		if err != nil {
			t.Fatalf("%s: session: %v", name, err)
		}
		deltas := ecoDeltas(d, 12, 42)
		deltas = append(deltas,
			core.Delta{Op: core.DeltaInsert, Master: 0, TX: deltas[0].TX, TY: deltas[0].TY},
			core.Delta{Op: core.DeltaDelete, Cell: deltas[1].Cell},
		)
		if _, err := ses.ApplyDelta(context.Background(), deltas); err != nil {
			t.Fatalf("%s: apply: %v", name, err)
		}
		if v := ses.Verify(4); len(v) != 0 {
			t.Fatalf("%s: %d violations after batch: %v", name, len(v), v[0])
		}
		fp, err := ses.FixedPoint(context.Background())
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !fp {
			t.Fatalf("%s: fixed-point oracle failed", name)
		}
	}
}
