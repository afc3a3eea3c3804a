package core

import (
	"errors"
	"fmt"

	"mrlegal/internal/design"
)

// Error taxonomy of the legalization engine. Every failure surfaced by the
// transactional paths (Legalize*, TryMoveCell, TryResizeCell, TryPlaceCell)
// wraps one of these sentinels, so callers can classify failures with
// errors.Is regardless of the per-cell context attached around them.
var (
	// ErrCellTooWide marks a cell that cannot fit any segment of any
	// rail-compatible row — unplaceable no matter how many rounds run.
	ErrCellTooWide = errors.New("core: cell wider than every compatible segment")

	// ErrNoInsertionPoint marks an MLL call whose local region contained no
	// feasible insertion point (the attempt may succeed elsewhere or in a
	// later round with a different window).
	ErrNoInsertionPoint = errors.New("core: no feasible insertion point in local region")

	// ErrAuditFailed marks cells whose placements were undone because a
	// mid-run invariant audit (Cfg.AuditEvery) detected a violation and the
	// engine rolled back to the last committed state.
	ErrAuditFailed = errors.New("core: invariant audit failed")

	// ErrCanceled marks a run ended early by context cancellation or the
	// run deadline.
	ErrCanceled = errors.New("core: legalization canceled")

	// ErrFixedCell marks an attempt to move or resize a fixed cell.
	ErrFixedCell = errors.New("core: cell is fixed")

	// ErrInvalidWidth marks a ResizeCell call with a non-positive width.
	ErrInvalidWidth = errors.New("core: invalid cell width")

	// ErrInvalidTarget marks a move or insert whose desired position is
	// NaN, infinite or beyond ±design.MaxCoord (2^30) on either
	// coordinate (validTarget).
	ErrInvalidTarget = errors.New("core: invalid target position")

	// ErrPanicked marks a panic raised inside MLL or realization that was
	// recovered at the attempt boundary; the attempt was rolled back, so
	// the design and grid are unchanged by the failed operation.
	ErrPanicked = errors.New("core: panic recovered during legalization")

	// ErrRoundsExhausted marks a strict Legalize run that ended with cells
	// still unplaced after Cfg.MaxRounds rounds.
	ErrRoundsExhausted = errors.New("core: retry rounds exhausted")

	// ErrRollbackFailed marks the one non-recoverable condition: an
	// undo-log rollback could not re-insert a cell at its snapshotted
	// position. It indicates state behind the log was corrupted (for
	// example by concurrent unsynchronized mutation of the design).
	ErrRollbackFailed = errors.New("core: transaction rollback failed")
)

// CellError attributes a legalization failure to one cell. It wraps one of
// the taxonomy sentinels (or a lower-level grid error) in Err.
type CellError struct {
	Cell design.CellID
	Name string
	Err  error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %d (%s): %v", e.Cell, e.Name, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// cellErr wraps err with the identity of the failing cell. Already-wrapped
// cell errors for the same cell pass through unchanged.
func (l *Legalizer) cellErr(id design.CellID, err error) error {
	var ce *CellError
	if errors.As(err, &ce) && ce.Cell == id {
		return err
	}
	return &CellError{Cell: id, Name: l.D.Cell(id).Name, Err: err}
}
