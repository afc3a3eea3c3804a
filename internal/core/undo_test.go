package core

import (
	"context"
	"errors"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/faultinject"
	"mrlegal/internal/geom"
)

// insertHook is a FaultInjector that runs one function at every primary
// grid insert and injects nothing else.
type insertHook func(design.CellID) error

func (h insertHook) OnGridInsert(id design.CellID) error { return h(id) }
func (h insertHook) OnRealize(design.CellID)             {}
func (h insertHook) OnAudit() bool                       { return false }

// cancelAt returns a context and a FaultInjector that cancels it at the
// n-th primary grid insert, so a call is canceled while it runs.
func cancelAt(t *testing.T, n int) (context.Context, FaultInjector) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	seen := 0
	return ctx, insertHook(func(design.CellID) error {
		if seen++; seen == n {
			cancel()
		}
		return nil
	})
}

// undoFixture returns a legalizer over a fresh unplaced 400-cell design
// at density 0.75 under DefaultConfig plus mut.
func undoFixture(t *testing.T, mut func(*Config)) *Legalizer {
	t.Helper()
	b := bengen.Generate(bengen.Spec{Name: "undo", NumCells: 400, Density: 0.75, Seed: 19})
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	l, err := NewLegalizer(b.D, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// crowded returns a legalizer over one 8-site row holding a placed
// 4-site cell at x=2, plus two unplaced 4-site cells: the row has room
// for one of them only, and only by pushing the placed cell.
func crowded(t *testing.T, mut func(*Config)) (l *Legalizer, placed, a, b design.CellID) {
	t.Helper()
	d := dtest.Flat(1, 8)
	placed = dtest.Placed(d, 4, 1, 2, 0)
	a = dtest.Unplaced(d, 4, 1, 2, 0)
	b = dtest.Unplaced(d, 4, 1, 2, 0)
	cfg := testConfig()
	if mut != nil {
		mut(&cfg)
	}
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, placed, a, b
}

// TestUndoLogEmptyBetweenCalls runs every public entry point through
// success, failure, an injected panic, an injected audit violation,
// cancellation, and a delta batch's commit and abort, and checks after
// each call that the legalizer's undo log is empty. The log lives as long
// as the legalizer, so a record one call left behind could be rolled back
// by a later call's boundary.
func TestUndoLogEmptyBetweenCalls(t *testing.T) {
	bg := context.Background()
	// session returns a session on the legalized undo fixture, with the
	// movable cell IDs; faults attached afterwards hit the batch only.
	session := func(t *testing.T) (*Session, []design.CellID) {
		t.Helper()
		return dirtyFixture(t, nil)
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	want := func(t *testing.T, err, sentinel error) {
		t.Helper()
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want %v", err, sentinel)
		}
	}
	// The TryMoveCell, TryResizeCell and LegalizeCtx labels are kept as
	// stable test names; those forms became MoveCell, ResizeCell and
	// Legalize(ctx).
	cases := []struct {
		name string
		run  func(t *testing.T) *Legalizer
	}{
		{"Legalize/success", func(t *testing.T) *Legalizer {
			l := undoFixture(t, nil)
			must(t, l.Legalize(bg))
			return l
		}},
		{"Legalize/rounds exhausted", func(t *testing.T) *Legalizer {
			l, _, _, _ := crowded(t, func(c *Config) { c.MaxRounds = 2 })
			want(t, l.Legalize(bg), ErrRoundsExhausted)
			return l
		}},
		{"LegalizeBestEffort/panic", func(t *testing.T) *Legalizer {
			inj := &faultinject.Injector{PanicRealizeEvery: 3}
			l := undoFixture(t, func(c *Config) { c.Faults = inj })
			rep, err := l.LegalizeBestEffort(bg)
			must(t, err)
			if inj.InjectedPanics == 0 || rep.Placed == 0 {
				t.Fatalf("%d panics injected, %d cells placed; the case needs both", inj.InjectedPanics, rep.Placed)
			}
			return l
		}},
		{"LegalizeBestEffort/audit violation", func(t *testing.T) *Legalizer {
			inj := &faultinject.Injector{FailAuditEvery: 2}
			l := undoFixture(t, func(c *Config) { c.AuditEvery, c.Faults = 7, inj })
			rep, err := l.LegalizeBestEffort(bg)
			must(t, err)
			if rep.AuditRollbacks == 0 || rep.AuditRuns == rep.AuditRollbacks {
				t.Fatalf("%d audits, %d rolled back; the case needs commits and rollbacks", rep.AuditRuns, rep.AuditRollbacks)
			}
			return l
		}},
		{"LegalizeCtx/canceled", func(t *testing.T) *Legalizer {
			ctx, inj := cancelAt(t, 50)
			l := undoFixture(t, func(c *Config) { c.Faults = inj })
			want(t, l.Legalize(ctx), ErrCanceled)
			return l
		}},
		{"LegalizeCtx/canceled audited", func(t *testing.T) *Legalizer {
			ctx, inj := cancelAt(t, 50)
			l := undoFixture(t, func(c *Config) { c.AuditEvery, c.Faults = 7, inj })
			want(t, l.Legalize(ctx), ErrCanceled)
			return l
		}},
		{"MLL/success", func(t *testing.T) *Legalizer {
			l, _, a, _ := crowded(t, nil)
			must(t, l.MLL(a, 2, 0))
			return l
		}},
		{"MLL/failure", func(t *testing.T) *Legalizer {
			l, _, a, b := crowded(t, nil)
			if l.MLL(a, 2, 0) != nil || l.MLL(b, 2, 0) == nil {
				t.Fatal("want the first MLL to succeed and the second to fail")
			}
			return l
		}},
		{"MoveCell/unplaced success", func(t *testing.T) *Legalizer {
			l, _, a, _ := crowded(t, nil)
			must(t, l.MoveCell(a, 2, 0))
			return l
		}},
		{"MoveCell/unplaced failure", func(t *testing.T) *Legalizer {
			l, _, a, b := crowded(t, nil)
			must(t, l.MoveCell(a, 2, 0))
			want(t, l.MoveCell(b, 2, 0), ErrNoInsertionPoint)
			return l
		}},
		{"MoveCell/unplaced panic", func(t *testing.T) *Legalizer {
			l, _, a, _ := crowded(t, func(c *Config) { c.Faults = &faultinject.Injector{PanicRealizeEvery: 1} })
			want(t, l.MoveCell(a, 2, 0), ErrPanicked)
			return l
		}},
		{"TryMoveCell/success", func(t *testing.T) *Legalizer {
			s, live := session(t)
			c := s.l.D.Cell(live[0])
			must(t, s.l.MoveCell(c.ID, float64(c.X+3), float64(c.Y)))
			return s.l
		}},
		{"TryMoveCell/insert failure", func(t *testing.T) *Legalizer {
			s, live := session(t)
			s.l.Cfg.Faults = &faultinject.Injector{FailInsertEvery: 1}
			c := s.l.D.Cell(live[0])
			want(t, s.l.MoveCell(c.ID, float64(c.X+3), float64(c.Y)), faultinject.ErrInjected)
			return s.l
		}},
		{"TryMoveCell/panic", func(t *testing.T) *Legalizer {
			l, placed, a, _ := crowded(t, nil)
			must(t, l.MoveCell(a, 2, 0))
			l.Cfg.Faults = &faultinject.Injector{PanicRealizeEvery: 1}
			want(t, l.MoveCell(placed, float64(l.D.Cell(a).X), 0), ErrPanicked)
			return l
		}},
		{"TryResizeCell/success", func(t *testing.T) *Legalizer {
			l, placed, _, _ := crowded(t, nil)
			must(t, l.ResizeCell(placed, 5))
			return l
		}},
		{"TryResizeCell/too wide", func(t *testing.T) *Legalizer {
			l, placed, _, _ := crowded(t, nil)
			want(t, l.ResizeCell(placed, 9), ErrCellTooWide)
			return l
		}},
		{"TryResizeCell/no room", func(t *testing.T) *Legalizer {
			l, placed, a, _ := crowded(t, nil)
			must(t, l.MoveCell(a, 2, 0))
			want(t, l.ResizeCell(placed, 5), ErrNoInsertionPoint)
			return l
		}},
		{"TryResizeCell/unplaced", func(t *testing.T) *Legalizer {
			l, _, a, _ := crowded(t, nil)
			must(t, l.ResizeCell(a, 3))
			return l
		}},
		{"ApplyDelta/commit", func(t *testing.T) *Legalizer {
			s, live := session(t)
			c := s.l.D.Cell(live[0])
			_, err := s.ApplyDelta(bg, []Delta{
				{Op: DeltaMove, Cell: c.ID, TX: float64(c.X + 2), TY: float64(c.Y)},
				{Op: DeltaResize, Cell: live[1], NewW: s.l.D.Cell(live[1]).W + 1},
				{Op: DeltaInsert, Master: c.Master, TX: float64(c.X), TY: float64(c.Y)},
				{Op: DeltaDelete, Cell: live[2]},
			})
			must(t, err)
			return s.l
		}},
		{"ApplyDelta/abort", func(t *testing.T) *Legalizer {
			s, live := session(t)
			s.l.Cfg.MaxRounds = 1
			c := s.l.D.Cell(live[0])
			deltas := make([]Delta, 12)
			for i := range deltas {
				deltas[i] = Delta{Op: DeltaInsert, Master: c.Master, TX: float64(c.X), TY: float64(c.Y)}
			}
			want(t, func() error { _, err := s.ApplyDelta(bg, deltas); return err }(), ErrNoInsertionPoint)
			return s.l
		}},
		{"ApplyDelta/canceled", func(t *testing.T) *Legalizer {
			s, live := session(t)
			ctx, inj := cancelAt(t, 2)
			s.l.Cfg.Faults = inj
			c := s.l.D.Cell(live[0])
			deltas := []Delta{
				{Op: DeltaMove, Cell: live[0], TX: float64(c.X + 2), TY: float64(c.Y)},
				{Op: DeltaMove, Cell: live[1], TX: float64(c.X + 2), TY: float64(c.Y)},
				{Op: DeltaMove, Cell: live[2], TX: float64(c.X + 2), TY: float64(c.Y)},
			}
			want(t, func() error { _, err := s.ApplyDelta(ctx, deltas); return err }(), ErrCanceled)
			return s.l
		}},
		{"ApplyDelta/panic", func(t *testing.T) *Legalizer {
			// A full row of two cells: moving the first onto the second
			// must go through MLL, whose realization panics.
			d := dtest.Flat(1, 8)
			first := dtest.Placed(d, 4, 1, 0, 0)
			dtest.Placed(d, 4, 1, 4, 0)
			l, err := NewLegalizer(d, testConfig())
			must(t, err)
			s, err := NewSession(l)
			must(t, err)
			l.Cfg.Faults, l.Cfg.MaxRounds = &faultinject.Injector{PanicRealizeEvery: 1}, 1
			_, err = s.ApplyDelta(bg, []Delta{{Op: DeltaMove, Cell: first, TX: 4, TY: 0}})
			want(t, err, ErrPanicked)
			return l
		}},
		{"FixedPoint", func(t *testing.T) *Legalizer {
			s, _ := session(t)
			ok, err := s.FixedPoint(bg)
			must(t, err)
			if !ok {
				t.Fatal("fixed point moved the placement")
			}
			return s.l
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := c.run(t)
			assertLogEmpty(t, l)
			if err := l.G.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// narrowSegment returns a FaultInjector that corrupts the grid behind the
// undo log, as an unsynchronized writer would: at the first grid insert
// of cell fail it narrows row 0's segment to span, so that a snapshot
// lying outside span can no longer be re-inserted, and it fails every
// insert of fail. *fired reports whether it narrowed the segment.
func narrowSegment(l *Legalizer, fail design.CellID, span geom.Span) (inj FaultInjector, fired *bool) {
	fired = new(bool)
	return insertHook(func(id design.CellID) error {
		if id != fail {
			return nil
		}
		if !*fired {
			*fired = true
			l.G.RowSegments(0)[0].Span = span
		}
		return errors.New("injected insert failure")
	}), fired
}

// TestApplyDeltaReportsRollbackFailure checks that a delta batch whose
// abort cannot restore the placement says so. The batch moves cell A off
// row 0 and then moves cell B; at B's first insert row 0's segment loses
// A's old slot behind the log, and every insert of B fails, so the batch
// aborts and its rollback cannot re-insert A. The batch error must wrap
// ErrRollbackFailed, and the undo log must still end empty.
func TestApplyDeltaReportsRollbackFailure(t *testing.T) {
	d := dtest.Flat(4, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	b := dtest.Placed(d, 4, 1, 10, 0)
	cfg := testConfig()
	cfg.MaxRounds = 2
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l)
	if err != nil {
		t.Fatal(err)
	}
	var fired *bool
	l.Cfg.Faults, fired = narrowSegment(l, b, geom.Span{Lo: 2, Hi: 40})
	_, err = s.ApplyDelta(context.Background(), []Delta{
		{Op: DeltaMove, Cell: a, TX: 20, TY: 2},
		{Op: DeltaMove, Cell: b, TX: 26, TY: 2},
	})
	if !*fired {
		t.Fatal("the injector never fired")
	}
	if !errors.Is(err, ErrRollbackFailed) {
		t.Fatalf("batch error %v does not wrap ErrRollbackFailed", err)
	}
	assertLogEmpty(t, l)
}

// TestRollbackRefusesATakenSlot checks that a rollback does not
// re-insert a snapshot over a cell that took its slot behind the log. A
// batch moves cell a off row 0 and then moves cell b; at b's first insert
// the untouched cell c, of a's size, moves into a's old slot, and every
// insert of b fails, so the batch aborts and its rollback finds a's slot
// taken. The batch error must wrap ErrRollbackFailed, and the undo log
// must still end empty.
func TestRollbackRefusesATakenSlot(t *testing.T) {
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	b := dtest.Placed(d, 4, 1, 10, 0)
	c := dtest.Placed(d, 4, 1, 30, 1)
	cfg := testConfig()
	cfg.MaxRounds = 1
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l)
	if err != nil {
		t.Fatal(err)
	}
	var moved error
	fired := false
	l.Cfg.Faults = insertHook(func(id design.CellID) error {
		if id != b {
			return nil
		}
		if !fired {
			fired = true
			l.G.Remove(c)
			l.D.Cells[c].X, l.D.Cells[c].Y = 0, 0
			moved = l.G.Insert(c)
		}
		return errors.New("injected insert failure")
	})
	_, err = s.ApplyDelta(context.Background(), []Delta{
		{Op: DeltaMove, Cell: a, TX: 20, TY: 1},
		{Op: DeltaMove, Cell: b, TX: 26, TY: 1},
	})
	if !fired || moved != nil {
		t.Fatalf("the injector fired %v, moving cell c: %v", fired, moved)
	}
	if !errors.Is(err, ErrRollbackFailed) {
		t.Fatalf("batch error %v does not wrap ErrRollbackFailed", err)
	}
	assertLogEmpty(t, l)
}

// TestBestEffortStopsOnRollbackFailure checks that a full run stops on
// an attempt whose rollback failed and returns ErrRollbackFailed, as
// LegalizeBestEffort's contract says, instead of recording one cell's
// failure and placing on. In the crowded row the first target must push
// the placed cell out of [2, 6); at the target's insert the row's segment
// loses that slot behind the log, the insert fails, and the rollback
// cannot re-insert the pushed cell.
func TestBestEffortStopsOnRollbackFailure(t *testing.T) {
	l, _, a, _ := crowded(t, func(c *Config) { c.MaxRounds = 2 })
	var fired *bool
	l.Cfg.Faults, fired = narrowSegment(l, a, geom.Span{Lo: 0, Hi: 5})
	rep, err := l.LegalizeBestEffort(context.Background())
	if !*fired {
		t.Fatal("the injector never fired")
	}
	if !errors.Is(err, ErrRollbackFailed) {
		t.Fatalf("LegalizeBestEffort error %v does not wrap ErrRollbackFailed", err)
	}
	if rep.Rounds != 1 || len(rep.Failed) != 2 {
		t.Fatalf("the run went on after the failed rollback: %d rounds, %d failed cells; want 1 and 2",
			rep.Rounds, len(rep.Failed))
	}
	assertLogEmpty(t, l)
}
