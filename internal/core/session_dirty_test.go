package core

import (
	"context"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
)

// refTouchedIDs is the reference for DeltaReport.DirtyCells: the distinct
// cell IDs of the undo log, in first-touch order, computed by walking the
// log with a seen-set exactly as the batch's dirty-region derivation once
// did.
func refTouchedIDs(t *Txn) []design.CellID {
	var ids []design.CellID
	seen := make(map[design.CellID]struct{}, len(t.latest))
	for i := range t.log {
		r := &t.log[i]
		if _, ok := seen[r.id]; ok {
			continue
		}
		seen[r.id] = struct{}{}
		ids = append(ids, r.id)
	}
	return ids
}

// TestSessionDirtyCellsMatchUndoLog checks DeltaReport.DirtyCells against
// the reference count of distinct cells in the batch's undo log, and the
// session's totals against the committed batches' reports. Each
// batch first runs on a twin legalizer (a clone of the design with the
// same rng state), where the reference is read before the commit, then
// on the session itself. Tight windows make deltas retry, so failed
// attempts roll back to savepoints inside the batch and the log is
// truncated under the count.
func TestSessionDirtyCellsMatchUndoLog(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "dirty", NumCells: 400, Density: 0.75, Seed: 19})
	cfg := DefaultConfig()
	cfg.Rx, cfg.Ry = 4, 1
	l, err := NewLegalizer(b.D, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l)
	if err != nil {
		t.Fatal(err)
	}
	pick := newRNG(23)
	var live []design.CellID
	for i := range l.D.Cells {
		if c := &l.D.Cells[i]; !c.Fixed {
			live = append(live, c.ID)
		}
	}
	committed, retried, dirty := 0, 0, 0
	for batch := 0; batch < 12; batch++ {
		var deltas []Delta
		for j := 0; j < 10; j++ {
			c := l.D.Cell(live[pick.intn(len(live))])
			if c.Dead {
				continue
			}
			switch pick.intn(4) {
			case 0, 1:
				deltas = append(deltas, Delta{Op: DeltaMove, Cell: c.ID,
					TX: float64(c.X + pick.rangeInt(8)), TY: float64(c.Y + pick.rangeInt(2))})
			case 2:
				deltas = append(deltas, Delta{Op: DeltaResize, Cell: c.ID, NewW: c.W + 1 + pick.intn(3)})
			default:
				deltas = append(deltas, Delta{Op: DeltaInsert, Master: c.Master, TX: float64(c.X), TY: float64(c.Y)})
			}
		}

		twinD := l.D.Clone()
		twin, err := NewLegalizer(twinD, l.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		*twin.rng = *l.rng
		ts := &Session{l: twin}
		tx, err := twin.Begin()
		if err != nil {
			t.Fatal(err)
		}
		twinOK := true
		for i := range deltas {
			if _, err := ts.applyOne(&deltas[i]); err != nil {
				twinOK = false
				break
			}
		}
		want := len(refTouchedIDs(tx))
		if twinOK {
			tx.Commit()
		} else if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}

		rep, err := s.ApplyDelta(context.Background(), deltas)
		if (err == nil) != twinOK {
			t.Fatalf("batch %d: session error %v, twin ok %v", batch, err, twinOK)
		}
		if err != nil {
			continue
		}
		committed++
		dirty += rep.DirtyCells
		if rep.Retries > 0 {
			retried++
		}
		if rep.DirtyCells != want {
			t.Errorf("batch %d: DirtyCells %d, undo-log reference %d", batch, rep.DirtyCells, want)
		}
		if got, ref := l.D.PlacementChecksum(), twinD.PlacementChecksum(); got != ref {
			t.Fatalf("batch %d: twin diverged from the session (%016x vs %016x)", batch, ref, got)
		}
	}
	if committed < 6 || retried < 3 {
		t.Fatalf("only %d committed batches, %d with retries; the check needs both", committed, retried)
	}
	if st := s.Stats(); st.Batches != uint64(committed) || st.DirtyCells != uint64(dirty) {
		t.Fatalf("session stats %+v, want %d batches and %d dirty cells", st, committed, dirty)
	}
}
