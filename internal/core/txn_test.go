package core

import (
	"fmt"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/verify"
)

// snapshotPlacement captures (X, Y, W, Placed, Orient) of every cell.
func snapshotPlacement(d *design.Design) []design.Cell {
	return append([]design.Cell(nil), d.Cells...)
}

func samePlacement(t *testing.T, want, got []design.Cell) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("cell count changed: %d vs %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.X != b.X || a.Y != b.Y || a.W != b.W || a.H != b.H || a.Placed != b.Placed || a.Orient != b.Orient {
			t.Fatalf("cell %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestTxnRollbackRestoresMovesAndGrid(t *testing.T) {
	d := dtest.Flat(4, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	b := dtest.Placed(d, 4, 2, 8, 0)
	c := dtest.Placed(d, 4, 1, 20, 2)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotPlacement(d)

	// Mutate all three cells through the legalizer's primitives.
	l.touch(a)
	l.G.Remove(a)
	l.D.Unplace(a)
	l.touch(b)
	l.G.Remove(b)
	l.D.Place(b, 30, 0)
	if err := l.G.Insert(b); err != nil {
		t.Fatal(err)
	}
	l.touch(c)
	l.G.Remove(c)
	l.D.Unplace(c)
	l.touch(c) // second touch in same span must dedup
	l.D.Place(c, 0, 3)
	if err := l.G.Insert(c); err != nil {
		t.Fatal(err)
	}
	if n := len(l.undo.latest); n != 3 {
		t.Fatalf("touched = %d, want 3", n)
	}
	if err := l.rollback(); err != nil {
		t.Fatal(err)
	}
	samePlacement(t, before, snapshotPlacement(d))
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})
}

func TestTxnSavepointRollsBackOnlyTail(t *testing.T) {
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	b := dtest.Placed(d, 4, 1, 10, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Span 1: move a.
	l.touch(a)
	l.G.Remove(a)
	l.D.Place(a, 20, 0)
	if err := l.G.Insert(a); err != nil {
		t.Fatal(err)
	}
	mark := l.undo.savepoint()
	// Span 2: move b, and move a again (new record after the mark).
	l.touch(b)
	l.G.Remove(b)
	l.D.Place(b, 30, 0)
	if err := l.G.Insert(b); err != nil {
		t.Fatal(err)
	}
	l.touch(a)
	l.G.Remove(a)
	l.D.Place(a, 36, 0)
	if err := l.G.Insert(a); err != nil {
		t.Fatal(err)
	}
	if err := l.rollbackTo(mark); err != nil {
		t.Fatal(err)
	}
	// Span 1's move survives; span 2's moves are undone.
	if got := d.Cell(a).X; got != 20 {
		t.Fatalf("a.X = %d, want 20 (span-1 state)", got)
	}
	if got := d.Cell(b).X; got != 10 {
		t.Fatalf("b.X = %d, want 10 (original)", got)
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	l.commit()
	assertLogEmpty(t, l)
}

// TestTxnForgetThenRollback checks that dropping the records, as a run
// without audits does after each placed cell, leaves the log able to
// undo what comes next: a cell moved before the drop is snapshotted again
// when the next span moves it, and rolling that span back restores the
// position the drop kept, not the one before it.
func TestTxnForgetThenRollback(t *testing.T) {
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	move := func(x int) {
		t.Helper()
		l.touch(a)
		l.G.Remove(a)
		l.D.Place(a, x, 0)
		if err := l.G.Insert(a); err != nil {
			t.Fatal(err)
		}
	}
	l.undo.savepoint()
	move(20)
	l.undo.drop()
	if n := len(l.undo.latest); n != 0 || len(l.undo.recs) != 0 {
		t.Fatalf("after drop: %d cells touched, %d records; want 0 and 0", n, len(l.undo.recs))
	}
	mark := l.undo.savepoint()
	move(30)
	if err := l.rollbackTo(mark); err != nil {
		t.Fatal(err)
	}
	if got := d.Cell(a).X; got != 20 {
		t.Fatalf("a.X = %d after rollback, want 20 (the state the drop kept)", got)
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	l.commit()
	assertLogEmpty(t, l)
}

func TestTxnRollbackFromHalfCommittedState(t *testing.T) {
	// Simulate a crash between a design mutation and the matching grid
	// update: the cell is marked placed but absent from the grid.
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotPlacement(d)
	l.touch(a)
	l.G.Remove(a)
	l.D.Place(a, 25, 1) // placed per the design, missing from the grid
	if err := l.rollback(); err != nil {
		t.Fatal(err)
	}
	samePlacement(t, before, snapshotPlacement(d))
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// assertLogEmpty fails the test unless the legalizer's undo log holds no
// record, no latest-index entry and no savepoint, as it must whenever no
// call is in flight.
func assertLogEmpty(t *testing.T, l *Legalizer) {
	t.Helper()
	if u := &l.undo; len(u.recs) != 0 || len(u.latest) != 0 || u.mark != 0 {
		t.Fatalf("undo log holds %d records, %d latest entries, savepoint %d; want all 0",
			len(u.recs), len(u.latest), u.mark)
	}
}

// undoProbe is a FaultInjector that injects nothing. At every primary
// grid insert it reads how many records the legalizer's undo log holds
// from before the current attempt's savepoint, and how many the attempt
// itself has logged.
type undoProbe struct {
	l      *Legalizer
	window int // with audits on: the AuditEvery cadence

	inserts int
	maxHeld int    // largest pre-savepoint record count seen
	own     []int  // since the log was last emptied, each placement's own records
	over    string // first insert holding more than window placements' records
}

func (p *undoProbe) OnGridInsert(design.CellID) error {
	u := &p.l.undo
	p.inserts++
	held := u.mark
	p.maxHeld = max(p.maxHeld, held)
	if p.window > 0 {
		if held == 0 {
			p.own = p.own[:0] // an audit committed: a new batch
		}
		recent := 0
		for _, n := range p.own[max(0, len(p.own)-p.window):] {
			recent += n
		}
		if held > recent && p.over == "" {
			p.over = fmt.Sprintf("insert %d: %d records before the savepoint, the last %d placements logged %d",
				p.inserts, held, p.window, recent)
		}
		p.own = append(p.own, len(u.recs)-held)
	}
	return nil
}

func (p *undoProbe) OnRealize(design.CellID) {}
func (p *undoProbe) OnAudit() bool           { return false }

// TestUndoLogHoldsOnlyOpenAttempt checks that a full run without audits
// keeps undo records for the open attempt only, and that an audited run
// still keeps its batch's records for the audit to roll back.
func TestUndoLogHoldsOnlyOpenAttempt(t *testing.T) {
	// The audited run is smaller: each audit verifies the whole design.
	for _, v := range []struct {
		name       string
		auditEvery int
		cells      int
	}{
		{"serial", 0, 20_000},
		{"serial audit50", 50, 5_000},
	} {
		t.Run(v.name, func(t *testing.T) {
			d := bengen.GenerateSized(bengen.SizeSpec{Name: "undo", NumCells: v.cells, Seed: 7})
			p := &undoProbe{window: v.auditEvery}
			cfg := DefaultConfig()
			cfg.AuditEvery, cfg.Faults = v.auditEvery, p
			l, err := NewLegalizer(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.l = l
			if err := l.Legalize(); err != nil {
				t.Fatal(err)
			}
			if p.inserts < v.cells {
				t.Fatalf("%d grid inserts for %d cells", p.inserts, v.cells)
			}
			if v.auditEvery == 0 {
				if p.maxHeld != 0 {
					t.Fatalf("an attempt found %d undo records from earlier attempts, want 0", p.maxHeld)
				}
				return
			}
			if p.over != "" {
				t.Fatal(p.over)
			}
			if p.maxHeld == 0 {
				t.Fatal("audited run kept no records across attempts")
			}
		})
	}
}
