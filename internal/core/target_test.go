package core_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/obs"
	"mrlegal/internal/verify"
)

// badCoords are desired coordinates no move or insert may accept: Go's
// float-to-int conversion of each is implementation-dependent.
var badCoords = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2e12, -2e12}

// TestInvalidTargetRejected drives every move and insert entry point with
// a NaN, infinite or out-of-range target on TX and on TY. Each call must
// fail with ErrInvalidTarget and leave the placement checksum unchanged.
func TestInvalidTargetRejected(t *testing.T) {
	ctx := context.Background()
	s, sl := legalSession(t, 300, 3, nil)
	sd := sl.D
	mover := sd.Cell(movableCells(sd)[9])

	b := bengen.Generate(bengen.Spec{Name: "targets", NumCells: 300, Density: 0.6, Seed: 5})
	l, err := core.NewLegalizer(b.D, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(ctx); err != nil {
		t.Fatal(err)
	}
	d := l.D
	placed := d.Cell(movableCells(d)[9])
	unplaced := d.AddCell("late", placed.Master, placed.GX, placed.GY)

	sessionSum, sum := sd.PlacementChecksum(), d.PlacementChecksum()
	for _, v := range badCoords {
		for _, onY := range []bool{false, true} {
			target := func(gx, gy float64) (float64, float64) {
				if onY {
					return gx, v
				}
				return v, gy
			}
			name := "TX"
			if onY {
				name = "TY"
			}
			wantErr := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, core.ErrInvalidTarget) {
					t.Errorf("%s with %s = %v: err = %v, want ErrInvalidTarget", what, name, v, err)
				}
			}

			tx, ty := target(mover.GX, mover.GY)
			_, err := s.ApplyDelta(ctx, []core.Delta{{Op: core.DeltaMove, Cell: mover.ID, TX: tx, TY: ty}})
			wantErr("ApplyDelta move", err)
			_, err = s.ApplyDelta(ctx, []core.Delta{{Op: core.DeltaInsert, Master: mover.Master, TX: tx, TY: ty}})
			wantErr("ApplyDelta insert", err)

			tx, ty = target(placed.GX, placed.GY)
			wantErr("MoveCell", l.MoveCell(placed.ID, tx, ty))
			wantErr("MoveCell on an unplaced cell", l.MoveCell(unplaced, tx, ty))
			wantErr("MLL", l.MLL(unplaced, tx, ty))

			if got := sd.PlacementChecksum(); got != sessionSum {
				t.Fatalf("%s = %v: session checksum %016x, want %016x", name, v, got, sessionSum)
			}
			if got := d.PlacementChecksum(); got != sum || d.Cell(unplaced).Placed {
				t.Fatalf("%s = %v: checksum %016x (late cell placed: %v), want %016x",
					name, v, got, d.Cell(unplaced).Placed, sum)
			}
		}
	}
	// A usable target still moves: the guard rejects only bad input.
	if _, err := s.ApplyDelta(ctx, []core.Delta{{Op: core.DeltaMove, Cell: mover.ID, TX: mover.GX + 3, TY: mover.GY}}); err != nil {
		t.Fatalf("ApplyDelta move to a finite target: %v", err)
	}
}

// TestInvalidInputPositionNeverAttempted gives one cell of a full run a
// NaN, infinite or out-of-range input position. The run must screen it
// out beside the too-wide cells: best effort names it with
// ErrInvalidTarget, leaves it unplaced, traces it, and places every
// other cell legally; the strict API fails with the same cause.
func TestInvalidInputPositionNeverAttempted(t *testing.T) {
	const bad = design.CellID(9)
	spec := bengen.SizeSpec{Name: "targets", NumCells: 2000, Seed: 3}
	for _, tc := range []struct {
		name string
		set  func(c *design.Cell)
	}{
		{"GX=NaN", func(c *design.Cell) { c.GX = math.NaN() }},
		{"GX=+Inf", func(c *design.Cell) { c.GX = math.Inf(1) }},
		{"GX=1e300", func(c *design.Cell) { c.GX = 1e300 }},
		{"GY=NaN", func(c *design.Cell) { c.GY = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := bengen.GenerateSized(spec)
			tc.set(d.Cell(bad))
			var trace bytes.Buffer
			o := obs.New(obs.Options{TraceOut: &trace})
			cfg := core.DefaultConfig()
			cfg.Obs = o
			l, err := core.NewLegalizer(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := l.LegalizeBestEffort(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Failed) != 1 || rep.Failed[0].Cell != bad || !errors.Is(rep.Failed[0].Err, core.ErrInvalidTarget) {
				t.Fatalf("failed = %v, want only cell %d with ErrInvalidTarget", rep.Failed, bad)
			}
			for i := range d.Cells {
				c := &d.Cells[i]
				if c.Placed == (c.ID == bad) {
					t.Fatalf("cell %d placed = %v at (%d, %d)", c.ID, c.Placed, c.X, c.Y)
				}
			}
			if vs := verify.Check(d, verify.Options{PowerAlignment: cfg.PowerAlign}, 0); len(vs) > 0 {
				t.Fatalf("%d violations, first: %s", len(vs), vs[0])
			}
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			evs, err := obs.ReadTrace(&trace)
			if err != nil {
				t.Fatal(err)
			}
			traced := false
			for _, ev := range evs {
				traced = traced || (ev.Cell == int(bad) && ev.Outcome == obs.OutcomeError)
			}
			if !traced {
				t.Errorf("no failure event for cell %d in %d trace events", bad, len(evs))
			}

			d2 := bengen.GenerateSized(spec)
			tc.set(d2.Cell(bad))
			l2, err := core.NewLegalizer(d2, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Legalize(context.Background()); !errors.Is(err, core.ErrInvalidTarget) {
				t.Fatalf("Legalize = %v, want ErrInvalidTarget", err)
			}
		})
	}
}
