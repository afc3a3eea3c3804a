package core

import (
	"context"
	"errors"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
)

// refTouchedIDs is the reference for DeltaReport.DirtyCells: the distinct
// cell IDs of the legalizer's undo log, in first-touch order, computed by
// walking the log with a seen-set exactly as the batch's dirty-region
// derivation once did.
func refTouchedIDs(l *Legalizer) []design.CellID {
	var ids []design.CellID
	seen := make(map[design.CellID]struct{}, len(l.undo.latest))
	for i := range l.undo.recs {
		r := &l.undo.recs[i]
		if _, ok := seen[r.id]; ok {
			continue
		}
		seen[r.id] = struct{}{}
		ids = append(ids, r.id)
	}
	return ids
}

// dirtyFixture opens a session on a dense design with tight windows
// (400 cells at density 0.75, Rx 4, Ry 1), legalized under DefaultConfig
// plus mut, and returns it with the design's movable cells.
func dirtyFixture(t *testing.T, mut func(*Config)) (*Session, []design.CellID) {
	t.Helper()
	b := bengen.Generate(bengen.Spec{Name: "dirty", NumCells: 400, Density: 0.75, Seed: 19})
	cfg := DefaultConfig()
	cfg.Rx, cfg.Ry = 4, 1
	if mut != nil {
		mut(&cfg)
	}
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
	var live []design.CellID
	for i := range l.D.Cells {
		if c := &l.D.Cells[i]; !c.Fixed {
			live = append(live, c.ID)
		}
	}
	return s, live
}

// TestSessionDirtyCellsMatchUndoLog checks DeltaReport.DirtyCells against
// the reference count of distinct cells in the batch's undo log, and the
// session's totals against the committed batches' reports. Each
// batch first runs on a twin legalizer (a clone of the design with the
// same rng state) through the session's own batch path, where the
// reference is read before the commit, then on the session itself.
// Tight windows make cells retry, so failed attempts roll back to
// savepoints inside the batch and the log is truncated under the count.
func TestSessionDirtyCellsMatchUndoLog(t *testing.T) {
	s, live := dirtyFixture(t, nil)
	l := s.l
	pick := newRNG(23)
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
		_, twinErr := ts.apply(context.Background(), deltas)
		twinOK := twinErr == nil
		want := len(refTouchedIDs(twin))
		if twinOK {
			twin.commit()
		} else if err := twin.rollback(); err != nil {
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
		if got, ref := l.D.PlacementChecksum(), twinD.PlacementChecksum(); got != ref || s.PlacementChecksum() != got {
			t.Fatalf("batch %d: twin diverged from the session (%016x vs %016x, kept %016x)", batch, ref, got, s.PlacementChecksum())
		}
	}
	if committed < 6 || retried < 3 {
		t.Fatalf("only %d committed batches, %d with retries; the check needs both", committed, retried)
	}
	if st := s.Stats(); st.Batches != uint64(committed) || st.DirtyCells != uint64(dirty) {
		t.Fatalf("session stats %+v, want %d batches and %d dirty cells", st, committed, dirty)
	}
}

// TestSessionFailedBatchLeavesNoTrace applies insert batches of 1-12
// cells to the dirty fixture with MaxRounds 3 and no window escalation,
// so batches run out of rounds, under the default and an
// audit-every-placement config. A batch's rounds stay inside its one
// transaction whatever AuditEvery says, so every failed batch must leave
// the placement, the roster, the grid and legality as they were, and
// both configs must end on the same placement. After every batch the
// session's kept digest must equal a from-scratch one.
func TestSessionFailedBatchLeavesNoTrace(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"serial", nil},
		{"audit1", func(c *Config) { c.AuditEvery = 1 }},
	}
	var sums []uint64
	for _, v := range variants {
		s, live := dirtyFixture(t, v.mut)
		l := s.l
		// The base run needs the full ladder; the batches get three rounds.
		l.Cfg.MaxRounds = 3
		pick := newRNG(31)
		committed, failed := 0, 0
		for batch := 0; batch < 80; batch++ {
			deltas := make([]Delta, 1+pick.intn(12))
			for j := range deltas {
				c := l.D.Cell(live[pick.intn(len(live))])
				deltas[j] = Delta{Op: DeltaInsert, Master: c.Master,
					TX: float64(c.X + pick.rangeInt(4)), TY: float64(c.Y)}
			}
			sum0, n0 := l.D.PlacementChecksum(), len(l.D.Cells)
			_, err := s.ApplyDelta(context.Background(), deltas)
			if got := s.PlacementChecksum(); got != l.D.PlacementChecksum() {
				t.Fatalf("%s batch %d: kept digest %016x, from scratch %016x", v.name, batch, got, l.D.PlacementChecksum())
			}
			if err == nil {
				committed++
				continue
			} else if !errors.Is(err, ErrNoInsertionPoint) {
				t.Fatalf("%s batch %d: err = %v, want ErrNoInsertionPoint", v.name, batch, err)
			}
			failed++
			if got := l.D.PlacementChecksum(); got != sum0 {
				t.Fatalf("%s batch %d: failed batch changed the checksum %016x -> %016x", v.name, batch, sum0, got)
			}
			if len(l.D.Cells) != n0 {
				t.Fatalf("%s batch %d: failed batch left %d cells, want %d", v.name, batch, len(l.D.Cells), n0)
			}
			if err := l.G.CheckConsistency(); err != nil {
				t.Fatalf("%s batch %d: grid after failed batch: %v", v.name, batch, err)
			}
			if vs := s.Verify(1); len(vs) > 0 {
				t.Fatalf("%s batch %d: failed batch left a violation: %v", v.name, batch, vs[0])
			}
		}
		if committed < 2 || failed < 20 {
			t.Fatalf("%s: %d committed and %d failed batches; the check needs both", v.name, committed, failed)
		}
		sums = append(sums, l.D.PlacementChecksum())
	}
	for i := range sums {
		if sums[i] != sums[0] {
			t.Errorf("%s ended at %016x, serial at %016x", variants[i].name, sums[i], sums[0])
		}
	}
}
