package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mrlegal/internal/design"
	"mrlegal/internal/verify"
)

// This file is the incremental (ECO) legalization engine: long-lived
// sessions over an already-legal design, where each call applies a small
// batch of cell-level deltas (move / resize / insert / delete) and
// relegalizes only the perturbed neighborhood instead of the whole die.
//
// Design: a delta batch runs inside one undo-log transaction (txn.go).
// Each delta reuses the single-cell mutation paths the engine already
// has — remove + best-first placeAt — retried with Algorithm-1 jitter and
// window escalation when the first attempt finds no insertion point, so a
// dense neighborhood gets exactly the retry ladder a full run would give
// it, scoped to the one cell. Any delta that still fails aborts the whole
// batch: the transaction rolls back and the design returns to the legal
// state it had before ApplyDelta was called (all-or-nothing semantics).
//
// A successful batch reports how many distinct cells it perturbed,
// targets and pushed neighbors alike. The transaction's undo log already
// indexes each such cell once (Txn.Touched), so the count costs nothing.
//
// Correctness anchors (session_test.go, internal/experiments/eco.go):
//   - verify.Check reports zero violations after every batch;
//   - the fixed-point oracle: running full legalization on the
//     incremental result is a no-op (placement checksum unchanged).
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
	X, Y int           // final legal position (zero for deletes)
	// Placed is false only for deletes.
	Placed bool
	// Retries counts extra jittered attempts beyond the first.
	Retries int
}

// DeltaReport summarizes one committed batch.
type DeltaReport struct {
	Results []DeltaResult

	// DirtyCells is the number of distinct cells the batch perturbed —
	// targets, inserted cells and every neighbor a realization pushed.
	DirtyCells int
	// Retries is the total extra jittered attempts the batch needed.
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
	l.syncConstraints()
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
		Extra:          l.conCheck,
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
	s.l.syncConstraints()
	return verify.Check(s.l.D, s.l.verifyOptions(), limit)
}

// FixedPoint runs the oracle the session's incremental claim rests on:
// full legalization of the current state must be a no-op. It returns
// true when the placement checksum is unchanged by a full Legalize pass.
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
// before the call (the batch transaction rolled back) — except for the
// non-recoverable ErrRollbackFailed. Deltas are applied in order inside
// one transaction, so intra-batch dependencies (insert then move the
// same area) see each other's effects.
func (s *Session) ApplyDelta(ctx context.Context, deltas []Delta) (*DeltaReport, error) {
	l := s.l
	if s.closed {
		return nil, ErrSessionClosed
	}
	l.syncConstraints()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: delta batch canceled: %w", ErrCanceled)
	}
	if err := s.validate(deltas); err != nil {
		return nil, err
	}

	rep := &DeltaReport{Results: make([]DeltaResult, 0, len(deltas))}
	preCells := len(l.D.Cells)

	tx, err := l.Begin()
	if err != nil {
		return nil, err
	}
	committed := false
	defer func() {
		if committed {
			return
		}
		// Abort: restore the pre-batch state. Rollback re-places every
		// touched cell from its snapshot; cells appended by inserts are
		// restored to their initial unplaced state and then truncated off
		// the roster (they were never visible outside this failed batch).
		tx.Rollback()
		l.D.Cells = l.D.Cells[:preCells]
	}()

	for i := range deltas {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: delta batch canceled at delta %d: %w", i, ErrCanceled)
		}
		res, err := s.applyOne(&deltas[i])
		if err != nil {
			return nil, fmt.Errorf("core: delta %d/%d (%s): %w", i, len(deltas), deltas[i].Op, err)
		}
		rep.Retries += res.Retries
		rep.Results = append(rep.Results, res)
	}

	// Count the perturbed cells before committing discards the undo log.
	rep.DirtyCells = tx.Touched()
	tx.Commit()
	committed = true

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
	for i := range deltas {
		dl := &deltas[i]
		switch dl.Op {
		case DeltaMove, DeltaResize, DeltaDelete:
			if int(dl.Cell) < 0 || int(dl.Cell) >= len(d.Cells) {
				return fmt.Errorf("core: delta %d (%s): cell %d: %w", i, dl.Op, dl.Cell, ErrUnknownCell)
			}
			c := d.Cell(dl.Cell)
			if c.Dead {
				return fmt.Errorf("core: delta %d (%s): cell %d is deleted: %w", i, dl.Op, dl.Cell, ErrUnknownCell)
			}
			if c.Fixed {
				return s.l.cellErr(dl.Cell, ErrFixedCell)
			}
			if dl.Op == DeltaResize && dl.NewW < 1 {
				return s.l.cellErr(dl.Cell, ErrInvalidWidth)
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

// applyOne realizes one delta inside the open batch transaction. Failed
// attempts roll back to their own savepoint (attempt), so a retry ladder
// leaves no residue.
func (s *Session) applyOne(dl *Delta) (DeltaResult, error) {
	l := s.l
	res := DeltaResult{Op: dl.Op, Cell: dl.Cell}
	switch dl.Op {
	case DeltaMove:
		id := dl.Cell
		retries, err := s.placeWithRetries(id, dl.TX, dl.TY, func() error {
			c := l.D.Cell(id)
			l.touch(id)
			if c.Placed {
				l.G.Remove(id)
				l.D.Unplace(id)
			}
			return nil
		})
		res.Retries = retries
		if err != nil {
			return res, err
		}

	case DeltaResize:
		id := dl.Cell
		c := l.D.Cell(id)
		if !l.widthFits(l.D.MasterOf(id), dl.NewW, c.H) {
			return res, l.cellErr(id, ErrCellTooWide)
		}
		oldX, oldY := float64(c.X), float64(c.Y)
		if !c.Placed {
			oldX, oldY = c.GX, c.GY
		}
		retries, err := s.placeWithRetries(id, oldX, oldY, func() error {
			c := l.D.Cell(id)
			l.touch(id)
			if c.Placed {
				l.G.Remove(id)
				l.D.Unplace(id)
			}
			c.W = dl.NewW
			return nil
		})
		res.Retries = retries
		if err != nil {
			return res, err
		}

	case DeltaInsert:
		name := dl.Name
		if name == "" {
			name = fmt.Sprintf("eco_%d", len(l.D.Cells))
		}
		m := &l.D.Lib[dl.Master]
		if !l.widthFits(m, m.Width, m.Height) {
			return res, fmt.Errorf("insert %q: %w", name, ErrCellTooWide)
		}
		id := l.D.AddCell(name, dl.Master, dl.TX, dl.TY)
		res.Cell = id
		retries, err := s.placeWithRetries(id, dl.TX, dl.TY, nil)
		res.Retries = retries
		if err != nil {
			return res, err
		}

	case DeltaDelete:
		id := dl.Cell
		err := l.attempt(id, func() error {
			c := l.D.Cell(id)
			l.touch(id)
			if c.Placed {
				l.G.Remove(id)
				l.D.Unplace(id)
			}
			l.D.Delete(id)
			return nil
		})
		if err != nil {
			return res, err
		}
		return res, nil
	}
	c := l.D.Cell(res.Cell)
	res.X, res.Y, res.Placed = c.X, c.Y, c.Placed
	return res, nil
}

// placeWithRetries runs pre (detach/mutate) + placeAt for the cell under
// the batch transaction, retrying with Algorithm-1 jitter and window
// escalation when no insertion point exists — the same ladder the full
// driver climbs (placeRound), scoped to one cell and drawn from the same
// seeded stream, so a session's outcomes are deterministic for a fixed
// (design, config seed, delta sequence).
func (s *Session) placeWithRetries(id design.CellID, tx0, ty0 float64, pre func() error) (retries int, err error) {
	l := s.l
	c := l.D.Cell(id)
	bounds := l.D.Bounds()
	maxRounds := l.Cfg.MaxRounds
	if maxRounds < 1 {
		maxRounds = 1
	}
	for k := 1; k <= maxRounds; k++ {
		rx, ry := l.Cfg.Rx, l.Cfg.Ry
		if l.Cfg.EscalateWindow && k > 4 {
			scale := 1 + (k-4)/2
			rx *= scale
			ry *= scale
		}
		tx, ty := tx0, ty0
		if k > 1 {
			retries++
			tx += float64(l.rng.rangeInt(rx * (k - 1)))
			ty += float64(l.rng.rangeInt(ry * (k - 1)))
			tx = math.Min(math.Max(tx, float64(bounds.X)), float64(bounds.X2()-c.W))
			ty = math.Min(math.Max(ty, float64(bounds.Y)), float64(bounds.Y2()-c.H))
		}
		err = l.attempt(id, func() error {
			if pre != nil {
				if e := pre(); e != nil {
					return e
				}
			}
			return l.placeAt(id, tx, ty, rx, ry)
		})
		if err == nil || !errors.Is(err, ErrNoInsertionPoint) {
			return retries, err
		}
	}
	return retries, err
}
