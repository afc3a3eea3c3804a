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
// only unplaced cells, and a session leaves none), and requires the
// session's kept digest to equal a from-scratch one; TestGoldenSessions
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
		if got, want := ses.PlacementChecksum(), d.PlacementChecksum(); got != want {
			t.Fatalf("%s: kept digest %016x, from scratch %016x", name, got, want)
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

// TestSessionResizeMovesDigest shrinks one cell of fft_a at scale 800 by
// one site in a batch of its own. The cell keeps its slot and pushes
// nothing, so the FNV hash of the goldens, which reads neither widths nor
// tombstones, stays put; the placement digest covers W and must move, and
// the session's kept digest must follow it.
func TestSessionResizeMovesDigest(t *testing.T) {
	var spec bengen.Spec
	for _, s := range bengen.Table1Specs(goldenScale) {
		if s.Name == "fft_a" {
			spec = s
		}
	}
	d := Prepare(spec, 0).Bench.D.Clone()
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	ses, err := core.NewSession(l)
	if err != nil {
		t.Fatal(err)
	}
	id := design.CellID(-1)
	for i := range d.Cells {
		if c := &d.Cells[i]; !c.Fixed && c.W > 1 {
			id = c.ID
			break
		}
	}
	if id < 0 {
		t.Fatal("fft_a has no movable cell wider than one site")
	}
	c := d.Cell(id)
	x, y, hash, sum := c.X, c.Y, fnvPlacement(d), ses.PlacementChecksum()
	rep, err := ses.ApplyDelta(context.Background(), []core.Delta{{Op: core.DeltaResize, Cell: id, NewW: c.W - 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Results[0]; r.X != x || r.Y != y || rep.DirtyCells != 1 {
		t.Fatalf("the shrink moved its cell to (%d,%d) from (%d,%d) or pushed others (%d dirty cells)",
			r.X, r.Y, x, y, rep.DirtyCells)
	}
	if got := fnvPlacement(d); got != hash {
		t.Fatalf("FNV hash moved %016x -> %016x on a shrink in place", hash, got)
	}
	if got := ses.PlacementChecksum(); got == sum || got != d.PlacementChecksum() {
		t.Fatalf("digest %016x -> kept %016x, from scratch %016x; want a move, kept equal to from scratch",
			sum, got, d.PlacementChecksum())
	}
}
