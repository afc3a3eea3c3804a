package core

import (
	"fmt"

	"mrlegal/internal/design"
)

// undoLog is the legalizer's one undo log over its (design, occupancy
// grid) pair. NewLegalizer builds it and every call reuses it, as it
// reuses the scratch, so a single-cell edit allocates nothing. Every
// mutation path records a snapshot of a cell's full state immediately
// before the cell is first touched, so the log is O(touched cells), not a
// copy of the design.
//
// Every boundary of the engine is a savepoint on this log, and the log is
// empty whenever no call is in flight:
//   - attempt marks before one cell's placement step and unwinds to its
//     mark on any failure, a recovered panic included;
//   - MLL, PlaceCell, MoveCell and ResizeCell each wrap one attempt and
//     then commit or roll back to 0 (edit);
//   - a full run drops the records after each placed cell when audits are
//     off, because nothing can roll back past the placement just made;
//     with audits on it commits or rolls back to 0 at each audit, and it
//     commits at its end;
//   - a delta batch (Session.ApplyDelta) commits or rolls back to 0 once.
//
// Rolling back restores state in two phases — first every touched cell is
// removed from the grid, then snapshots are restored and earlier
// placements re-inserted — so it succeeds from *any* intermediate state,
// including the half-committed states left behind by a panic between a
// design mutation and the matching grid update.
type undoLog struct {
	recs   []undoRec
	latest map[design.CellID]int // latest record index per cell, for dedup
	mark   int                   // the open savepoint
}

// undoRec snapshots one cell immediately before its first mutation in the
// current savepoint span. prevIdx chains to the cell's previous record in
// an earlier span (-1 when none), so truncating the log keeps the index
// consistent.
type undoRec struct {
	id      design.CellID
	prev    design.Cell
	prevIdx int
}

// savepoint marks the end of the log and returns the mark for rollbackTo.
func (u *undoLog) savepoint() int {
	u.mark = len(u.recs)
	return u.mark
}

// drop discards every record and the savepoint, making the logged changes
// permanent. The records and the latest index are emptied in place, so
// nothing is allocated.
func (u *undoLog) drop() {
	for i := range u.recs {
		delete(u.latest, u.recs[i].id)
	}
	u.recs = u.recs[:0]
	u.mark = 0
}

// touch records the cell's pre-mutation snapshot unless one was already
// taken since the savepoint.
func (l *Legalizer) touch(id design.CellID) {
	u := &l.undo
	prevIdx := -1
	if i, ok := u.latest[id]; ok {
		if i >= u.mark {
			return // already snapshotted in this span
		}
		prevIdx = i
	}
	u.recs = append(u.recs, undoRec{id: id, prev: l.D.Cells[id], prevIdx: prevIdx})
	u.latest[id] = len(u.recs) - 1
}

// commit makes every logged change permanent and empties the log.
func (l *Legalizer) commit() {
	l.undo.drop()
	if l.om != nil {
		l.om.txnCommits.Inc()
	}
}

// rollback undoes every logged change and empties the log. It is safe to
// call after a recovered panic.
func (l *Legalizer) rollback() error {
	err := l.rollbackTo(0)
	if l.om != nil {
		l.om.txnRollbacks.Inc()
	}
	return err
}

// rollbackTo undoes every change logged since the given savepoint and
// truncates the log to it. The returned error is non-nil only when a
// snapshot could not be re-applied (ErrRollbackFailed), which indicates
// corruption introduced behind the log.
//
// A cell's state at the savepoint is its oldest record at or after the
// mark: the one whose prevIdx lies below the mark, since a later record of
// the same cell chains to that one. One pass over the tail in order
// therefore visits each touched cell once, in first-touch order.
func (l *Legalizer) rollbackTo(mark int) error {
	u := &l.undo
	if mark < 0 || mark > len(u.recs) {
		return fmt.Errorf("%w: savepoint %d out of range [0,%d]", ErrRollbackFailed, mark, len(u.recs))
	}
	if mark == len(u.recs) {
		return nil
	}
	tail := u.recs[mark:]
	d, g := l.D, l.G
	// Phase 1: clear every touched cell out of the grid. Remove tolerates
	// cells that are only partially present (or absent), so this works from
	// any intermediate state.
	for i := range tail {
		if r := &tail[i]; r.prevIdx < mark {
			if c := d.Cell(r.id); c.Placed && !c.Fixed {
				g.Remove(r.id)
			}
		}
	}
	// Phase 2: restore snapshots and re-insert pre-savepoint placements.
	// All touched cells were removed above, so a slot that is not free
	// (occupied, or outside every segment) was changed behind the log: the
	// cell is left out of the grid and the rollback fails.
	var firstErr error
	for i := range tail {
		r := &tail[i]
		if r.prevIdx >= mark {
			continue
		}
		d.Cells[r.id] = r.prev
		c := &r.prev
		if !c.Placed || c.Fixed {
			continue
		}
		if !g.FreeAt(c.X, c.Y, c.W, c.H) || g.Insert(r.id) != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: reinsert cell %d: slot (%d,%d) w=%d h=%d is not free",
					ErrRollbackFailed, r.id, c.X, c.Y, c.W, c.H)
			}
		}
	}
	// Truncate the log and repair the per-cell latest index.
	for i := len(u.recs) - 1; i >= mark; i-- {
		r := &u.recs[i]
		if r.prevIdx >= 0 {
			u.latest[r.id] = r.prevIdx
		} else {
			delete(u.latest, r.id)
		}
	}
	u.recs = u.recs[:mark]
	if u.mark > mark {
		u.mark = mark
	}
	// Positions changed under the last realization's feet; invalidate it.
	l.lastMoved = l.lastMoved[:0]
	return firstErr
}

// attempt runs fn for cell id behind a savepoint on the undo log. A panic
// inside fn is recovered and converted to a *CellError wrapping
// ErrPanicked; on any failure the state mutated by fn is rolled back to
// the savepoint. This is the innermost boundary of the engine: MLL,
// realization and the grid never leave partial state behind an error. It
// is also where an observer's metrics mirror the attempt's Stats, on
// every exit.
func (l *Legalizer) attempt(id design.CellID, fn func() error) (err error) {
	mark := l.undo.savepoint()
	var s0 Stats
	var p0 PhaseTimes
	if l.om != nil {
		s0, p0 = l.sc.stats, l.sc.phases
	}
	defer func() {
		if p := recover(); p != nil {
			err = l.cellErr(id, fmt.Errorf("%w: %v", ErrPanicked, p))
		}
		if l.om != nil {
			l.observeStep(&s0, &p0)
		}
		if err != nil {
			err = l.cellErr(id, err)
			if rbErr := l.rollbackTo(mark); rbErr != nil {
				err = fmt.Errorf("%v; %w", err, rbErr)
			}
		}
	}()
	return fn()
}

// edit runs fn as the one attempt of a single-cell call (MLL, PlaceCell,
// MoveCell, ResizeCell) and then ends the call: it commits on success and
// rolls back to 0 on failure, where attempt has already unwound its
// changes.
func (l *Legalizer) edit(id design.CellID, fn func() error) error {
	err := l.attempt(id, fn)
	if err == nil {
		l.commit()
		return nil
	}
	if rbErr := l.rollback(); rbErr != nil {
		err = fmt.Errorf("%v; %w", err, rbErr)
	}
	return err
}
