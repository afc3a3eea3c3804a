package core

import (
	"context"
	"errors"
	"fmt"

	"mrlegal/internal/design"
	"mrlegal/internal/verify"
)

// This file is the incremental (ECO) legalization engine: long-lived
// sessions over an already-legal design, where each call applies a small
// batch of cell-level deltas (move / resize / insert / delete) and
// relegalizes only the perturbed neighborhood instead of the whole die.
//
// A delta batch is Algorithm 1 restricted to the batch's cells, in one
// span of the legalizer's undo log (txn.go) that the batch commits or
// rolls back as a whole:
//   - Edits, in delta order, before any placement. Move and resize lift
//     their cell out of the grid (lift), insert appends an unplaced cell,
//     delete tombstones its cell. validate and the width checks of
//     resize and insert run first, so a malformed batch touches nothing.
//   - Repeated cells. A cell edited twice keeps its last target; a resize
//     keeps the target of an earlier move of the same cell and otherwise
//     targets the cell's current position. A cell deleted later in the
//     batch is not placed; a delta naming a cell deleted earlier in the
//     batch is rejected.
//   - Placement. The retry ladder of a full run (driver.go) runs over the
//     batch's live cells in the order of their first delta: round 1 at
//     each cell's target, retry rounds at seeded jitter from the
//     legalizer's rng with the same window escalation and die clamp. The
//     rounds never audit, whatever AuditEvery says: an audit commit would
//     land part of the batch.
//   - Failure. A cell still unplaced after MaxRounds, or at cancellation,
//     fails the batch: the log rolls back to 0, inserted cells are
//     truncated off the roster, and the error names the cell's last delta
//     and wraps its last reason. The design returns to the legal state it
//     had before ApplyDelta was called (all-or-nothing semantics), unless
//     a rollback fails: then the error also wraps ErrRollbackFailed and
//     the placement can no longer be trusted.
//   - Results are read after the ladder, so each reports its cell's
//     position at commit.
//
// Outcomes are deterministic for a fixed (design, config seed, delta
// sequence). A successful batch reports how many distinct cells it
// perturbed, targets and pushed neighbors alike. The undo log already
// indexes each such cell once (its latest index), so the count costs
// nothing.
//
// Correctness anchors (session_test.go, internal/experiments/eco.go):
//   - verify.Check reports zero violations after every batch;
//   - the golden session stream (golden_sessions.txt) pins the checksum
//     after every batch.
//
// The fixed-point oracle (FixedPoint) is weaker than its name: a full
// run places only unplaced cells, and every live movable cell of a
// session is placed between batches, so it reads true by construction.
//
// Concurrency: a Session has the same single-goroutine contract as every
// exported Legalizer API — callers serialize ApplyDelta themselves (the
// service layer does it with a per-session mutex, internal/jobq).

// DeltaOp is the kind of one incremental edit.
type DeltaOp uint8

const (
	// DeltaMove relocates a placed cell toward (TX, TY).
	DeltaMove DeltaOp = iota
	// DeltaResize changes a cell's width to NewW and relegalizes it near
	// its current position (gate sizing).
	DeltaResize
	// DeltaInsert adds a new cell (Name, Master) near (TX, TY) — the
	// buffer-insertion primitive. The assigned CellID is returned in the
	// DeltaResult.
	DeltaInsert
	// DeltaDelete removes a cell from the placement and tombstones it
	// (design.Cell.Dead); its ID stays reserved and is never reused.
	DeltaDelete
)

// String returns the wire-format name of the op (docs/SERVICE.md).
func (op DeltaOp) String() string {
	switch op {
	case DeltaMove:
		return "move"
	case DeltaResize:
		return "resize"
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Delta is one cell-level edit of a batch.
type Delta struct {
	Op   DeltaOp
	Cell design.CellID // target of move / resize / delete
	TX   float64       // desired x (move / insert), fractional sites
	TY   float64       // desired y (move / insert), fractional rows
	NewW int           // new width (resize), sites
	Name string        // instance name (insert; autogenerated if empty)
	// Master is the library index of the inserted cell's master.
	Master int
}

// DeltaResult is the realized outcome of one delta in a committed batch.
type DeltaResult struct {
	Op   DeltaOp
	Cell design.CellID // resolved id (newly assigned for inserts)
	X, Y int           // the cell's position at commit (zero for deletes)
	// Placed is false for deletes and for a cell deleted later in the
	// same batch.
	Placed bool
}

// DeltaReport summarizes one committed batch.
type DeltaReport struct {
	Results []DeltaResult

	// DirtyCells is the number of distinct cells the batch perturbed —
	// targets, inserted cells and every neighbor a realization pushed.
	DirtyCells int
	// Retries is the number of cells entering each retry round (every
	// round after the first), summed.
	Retries int
}

// Session engine errors. They join the package taxonomy (errors.go) and
// get stable API codes in internal/service.
var (
	// ErrNotLegal marks a NewSession call on a design that is not fully
	// legal (unplaced live movable cells, or verify violations).
	ErrNotLegal = errors.New("core: session requires a fully legal design")

	// ErrSessionClosed marks a call on a closed session.
	ErrSessionClosed = errors.New("core: session is closed")

	// ErrUnknownCell marks a delta naming a cell id outside the design,
	// a deleted cell, or an insert with a bad master index.
	ErrUnknownCell = errors.New("core: unknown or deleted cell")
)

// Session is a long-lived incremental legalization context over one
// legalizer. Create with NewSession, mutate with ApplyDelta, end with
// Close. The underlying design stays legal after every successful call.
type Session struct {
	l      *Legalizer
	closed bool

	// Lifetime counters (SessionStats).
	batches    uint64
	deltas     uint64
	dirtyCells uint64
}

// SessionStats is the lifetime activity of one session.
type SessionStats struct {
	Batches    uint64
	Deltas     uint64
	DirtyCells uint64
}

// NewSession opens an incremental session on l. The design must already
// be fully legal: every live movable cell placed and verify.Check clean
// under the legalizer's configuration (run Legalize first). The session
// borrows the legalizer — no other Legalizer API may be used on l while
// the session is open.
func NewSession(l *Legalizer) (*Session, error) {
	for i := range l.D.Cells {
		c := &l.D.Cells[i]
		if !c.Fixed && !c.Dead && !c.Placed {
			return nil, fmt.Errorf("%w: cell %d (%s) is unplaced", ErrNotLegal, c.ID, c.Name)
		}
	}
	if vs := verify.Check(l.D, l.verifyOptions(), 1); len(vs) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotLegal, vs[0])
	}
	s := &Session{l: l}
	if l.om != nil {
		l.om.ecoSessionsActive.Add(1)
	}
	return s, nil
}

// verifyOptions mirrors the configuration the mid-run audit uses: base
// constraints plus the active plugin checkers.
func (l *Legalizer) verifyOptions() verify.Options {
	return verify.Options{
		RequirePlaced:  true,
		PowerAlignment: l.Cfg.PowerAlign,
		Extra:          l.Cfg.Constraints.Checkers(),
	}
}

// Legalizer returns the underlying legalizer (read-only use: stats,
// design access). The session keeps owning mutation.
func (s *Session) Legalizer() *Legalizer { return s.l }

// Design returns the session's design.
func (s *Session) Design() *design.Design { return s.l.D }

// Stats returns the session's lifetime activity counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{Batches: s.batches, Deltas: s.deltas, DirtyCells: s.dirtyCells}
}

// Verify re-checks the full design against the legalizer's configuration
// and returns up to limit violations (0 = unlimited). A healthy session
// returns an empty slice after every batch.
func (s *Session) Verify(limit int) []verify.Violation {
	return verify.Check(s.l.D, s.l.verifyOptions(), limit)
}

// FixedPoint runs a full LegalizeBestEffort pass over the current state
// and returns true when the placement checksum is unchanged. A full run
// only places cells that are unplaced, and between batches every live
// movable cell of a session is placed, so the pass has nothing to do:
// the result is true by construction and does not compare the
// incremental placement with a full legalization's.
func (s *Session) FixedPoint(ctx context.Context) (bool, error) {
	before := s.l.D.PlacementChecksum()
	if _, err := s.l.LegalizeBestEffort(ctx); err != nil {
		return false, err
	}
	return s.l.D.PlacementChecksum() == before, nil
}

// Close ends the session. The design keeps its final legal state; the
// legalizer may be used directly again afterwards.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.l.om != nil {
		s.l.om.ecoSessionsActive.Add(-1)
	}
}

// Closed reports whether Close was called.
func (s *Session) Closed() bool { return s.closed }

// ApplyDelta applies one batch of deltas atomically. On success the
// design is legal with every delta realized and the report describes the
// perturbation; on error the design is byte-identical to its state
// before the call (the batch rolled back) — except for the
// non-recoverable ErrRollbackFailed, which the error then wraps. The
// file header states the batch contract.
func (s *Session) ApplyDelta(ctx context.Context, deltas []Delta) (rep *DeltaReport, err error) {
	l := s.l
	if s.closed {
		return nil, ErrSessionClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: delta batch canceled: %w", ErrCanceled)
	}
	if err := s.validate(deltas); err != nil {
		return nil, err
	}

	preCells := len(l.D.Cells)
	defer func() {
		if rep != nil {
			return
		}
		// Abort, on an error or a panic on its way out: restore the
		// pre-batch state. The rollback re-places every touched cell from
		// its snapshot; cells appended by inserts are restored to their
		// initial unplaced state and then truncated off the roster (they
		// were never visible outside this failed batch).
		if rbErr := l.rollback(); rbErr != nil && err != nil {
			err = fmt.Errorf("%v; %w", err, rbErr)
		}
		l.D.Cells = l.D.Cells[:preCells]
	}()

	if rep, err = s.apply(ctx, deltas); err != nil {
		return nil, err
	}
	// Count the perturbed cells before the commit empties the log.
	rep.DirtyCells = len(l.undo.latest)
	l.commit()

	s.batches++
	s.deltas += uint64(len(deltas))
	s.dirtyCells += uint64(rep.DirtyCells)
	if l.om != nil {
		l.om.ecoDeltaBatches.Inc()
		l.om.ecoDeltaCells.Add(int64(len(deltas)))
		l.om.ecoDirtyCells.Add(int64(rep.DirtyCells))
	}
	return rep, nil
}

// validate rejects malformed deltas before any state is touched, so a
// bad batch costs zero rollback work.
func (s *Session) validate(deltas []Delta) error {
	d := s.l.D
	var deleted map[design.CellID]bool // cells deleted earlier in the batch
	for i := range deltas {
		dl := &deltas[i]
		switch dl.Op {
		case DeltaMove, DeltaResize, DeltaDelete:
			if int(dl.Cell) < 0 || int(dl.Cell) >= len(d.Cells) {
				return fmt.Errorf("core: delta %d (%s): cell %d: %w", i, dl.Op, dl.Cell, ErrUnknownCell)
			}
			c := d.Cell(dl.Cell)
			if c.Dead || deleted[dl.Cell] {
				return fmt.Errorf("core: delta %d (%s): cell %d is deleted: %w", i, dl.Op, dl.Cell, ErrUnknownCell)
			}
			if c.Fixed {
				return s.l.cellErr(dl.Cell, ErrFixedCell)
			}
			if dl.Op == DeltaResize && dl.NewW < 1 {
				return s.l.cellErr(dl.Cell, ErrInvalidWidth)
			}
			if dl.Op == DeltaDelete {
				if deleted == nil {
					deleted = make(map[design.CellID]bool)
				}
				deleted[dl.Cell] = true
			}
		case DeltaInsert:
			if dl.Master < 0 || dl.Master >= len(d.Lib) {
				return fmt.Errorf("core: delta %d (insert): master %d out of range: %w", i, dl.Master, ErrUnknownCell)
			}
		default:
			return fmt.Errorf("core: delta %d: %s: %w", i, dl.Op, ErrUnknownCell)
		}
	}
	return nil
}

// apply runs one validated batch in the undo log's open span: every
// delta's edit in delta order, then the retry ladder over the batch's
// live cells, then the results, read from the state the caller commits.
func (s *Session) apply(ctx context.Context, deltas []Delta) (*DeltaReport, error) {
	l := s.l
	fail := func(i int, err error) error {
		return fmt.Errorf("core: delta %d/%d (%s): %w", i, len(deltas), deltas[i].Op, err)
	}
	rep := &DeltaReport{Results: make([]DeltaResult, len(deltas))}
	st := &runState{rep: &Report{}, lastErr: make(map[design.CellID]error), delta: true,
		home: make(map[design.CellID]planTarget, len(deltas))}
	last := make(map[design.CellID]int, len(deltas)) // each cell's last delta
	var cells []design.CellID                        // by first delta
	for i := range deltas {
		dl := &deltas[i]
		id := dl.Cell
		switch dl.Op {
		case DeltaMove:
			l.lift(id)
			st.home[id] = planTarget{tx: dl.TX, ty: dl.TY}
		case DeltaResize:
			c := l.D.Cell(id)
			if !l.widthFits(l.D.MasterOf(id), dl.NewW, c.H) {
				return nil, fail(i, l.cellErr(id, ErrCellTooWide))
			}
			if _, ok := st.home[id]; !ok {
				st.home[id] = planTarget{tx: float64(c.X), ty: float64(c.Y)}
			}
			l.lift(id)
			c.W = dl.NewW
		case DeltaInsert:
			name := dl.Name
			if name == "" {
				name = fmt.Sprintf("eco_%d", len(l.D.Cells))
			}
			m := &l.D.Lib[dl.Master]
			if !l.widthFits(m, m.Width, m.Height) {
				return nil, fail(i, fmt.Errorf("insert %q: %w", name, ErrCellTooWide))
			}
			id = l.D.AddCell(name, dl.Master, dl.TX, dl.TY)
			st.home[id] = planTarget{tx: dl.TX, ty: dl.TY}
		case DeltaDelete:
			l.lift(id)
			l.D.Delete(id)
		}
		rep.Results[i] = DeltaResult{Op: dl.Op, Cell: id}
		if _, ok := last[id]; !ok {
			cells = append(cells, id)
		}
		last[id] = i
	}
	live := cells[:0]
	for _, id := range cells {
		if !l.D.Cell(id).Dead {
			live = append(live, id)
		}
	}

	l.runCtx = ctx
	defer func() { l.runCtx = nil }()
	if left := l.ladder(live, st); len(left) > 0 {
		id := left[0]
		var ce *CellError
		if errors.As(st.fatal, &ce) {
			id = ce.Cell // the ladder stopped on this cell's failed rollback
		}
		reason := st.lastErr[id]
		if reason == nil {
			reason = ErrRoundsExhausted
		}
		return nil, fail(last[id], reason)
	}
	rep.Retries = st.retried
	for i := range rep.Results {
		if r := &rep.Results[i]; r.Op != DeltaDelete {
			c := l.D.Cell(r.Cell)
			r.X, r.Y, r.Placed = c.X, c.Y, c.Placed
		}
	}
	return rep, nil
}
