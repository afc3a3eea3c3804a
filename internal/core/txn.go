package core

import (
	"fmt"

	"mrlegal/internal/design"
)

// Txn is an undo-log transaction over the (design, occupancy-grid) pair of
// one Legalizer. Every mutation path of the engine records a snapshot of a
// cell's full state immediately before the cell is first touched, so the
// log is O(touched cells), not a copy of the design.
//
// Savepoints (Mark / RollbackTo) subdivide a transaction: the driver opens
// one transaction per audit batch and marks before each cell attempt, so a
// failed or panicking attempt unwinds only its own cell set while committed
// work from earlier attempts survives. With audits off a batch is one
// cell: the driver drops the records after each placement (forget).
//
// Rollback restores state in two phases — first every touched cell is
// removed from the grid, then snapshots are restored and pre-transaction
// placements re-inserted — so it succeeds from *any* intermediate state,
// including the half-committed states left behind by a panic between a
// design mutation and the matching grid update.
type Txn struct {
	l        *Legalizer
	log      []undoRec
	latest   map[design.CellID]int // latest log index per cell, for dedup
	lastMark int
	done     bool
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

// Begin opens a transaction on the legalizer. Only one transaction may be
// active at a time; nested Begin returns ErrTxnActive.
func (l *Legalizer) Begin() (*Txn, error) {
	if l.txn != nil {
		return nil, ErrTxnActive
	}
	t := &Txn{l: l, latest: make(map[design.CellID]int)}
	l.txn = t
	return t, nil
}

// touch routes a mutation notification to the active transaction, if any.
func (l *Legalizer) touch(id design.CellID) {
	if l.txn != nil {
		l.txn.touch(id)
	}
}

// touch records the cell's pre-mutation snapshot unless one was already
// taken since the last savepoint.
func (t *Txn) touch(id design.CellID) {
	prevIdx := -1
	if i, ok := t.latest[id]; ok {
		if i >= t.lastMark {
			return // already snapshotted in this span
		}
		prevIdx = i
	}
	t.log = append(t.log, undoRec{id: id, prev: t.l.D.Cells[id], prevIdx: prevIdx})
	t.latest[id] = len(t.log) - 1
}

// Mark places a savepoint and returns its handle for RollbackTo.
func (t *Txn) Mark() int {
	t.lastMark = len(t.log)
	return t.lastMark
}

// forget drops every undo record and savepoint, leaving the transaction
// open on the current state. A full run without audits calls it after
// each placed cell, because no rollback can reach past the attempt that
// is open, so the log holds one attempt's records instead of the run's.
// The log and the latest index are reused in place: nothing is committed
// or allocated.
func (t *Txn) forget() {
	for i := range t.log {
		delete(t.latest, t.log[i].id)
	}
	t.log = t.log[:0]
	t.lastMark = 0
}

// Commit makes every change since Begin permanent and releases the
// transaction slot. The undo log is discarded.
func (t *Txn) Commit() {
	if t.done {
		return
	}
	t.done = true
	t.log = nil
	t.latest = nil
	if t.l.txn == t {
		t.l.txn = nil
	}
	if t.l.om != nil {
		t.l.om.txnCommits.Inc()
	}
}

// Rollback undoes every change since Begin and releases the transaction
// slot. It is safe to call after a recovered panic.
func (t *Txn) Rollback() error {
	if t.done {
		return nil
	}
	err := t.RollbackTo(0)
	t.done = true
	t.latest = nil
	if t.l.txn == t {
		t.l.txn = nil
	}
	if t.l.om != nil {
		t.l.om.txnRollbacks.Inc()
	}
	return err
}

// RollbackTo undoes every change since the given savepoint, leaving the
// transaction open. The returned error is non-nil only when a snapshot
// could not be re-applied (ErrRollbackFailed), which indicates corruption
// introduced outside the transaction.
func (t *Txn) RollbackTo(mark int) error {
	if mark < 0 || mark > len(t.log) {
		return fmt.Errorf("%w: savepoint %d out of range [0,%d]", ErrRollbackFailed, mark, len(t.log))
	}
	if mark == len(t.log) {
		return nil
	}
	// The cell's state at the savepoint is the oldest snapshot taken at or
	// after it (snapshots are taken at first mutation per span).
	targets := make(map[design.CellID]design.Cell)
	order := make([]design.CellID, 0, len(t.log)-mark)
	for i := mark; i < len(t.log); i++ {
		r := &t.log[i]
		if _, ok := targets[r.id]; !ok {
			targets[r.id] = r.prev
			order = append(order, r.id)
		}
	}
	d, g := t.l.D, t.l.G
	// Phase 1: clear every touched cell out of the grid. Remove tolerates
	// cells that are only partially present (or absent), so this works from
	// any intermediate state.
	for _, id := range order {
		if c := d.Cell(id); c.Placed && !c.Fixed {
			g.Remove(id)
		}
	}
	// Phase 2: restore snapshots and re-insert pre-savepoint placements.
	// All touched cells were removed above and untouched cells still sit at
	// positions legal alongside the snapshots, so every insert lands free.
	var firstErr error
	for _, id := range order {
		prev := targets[id]
		d.Cells[id] = prev
		if prev.Placed && !prev.Fixed {
			if err := g.Insert(id); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%w: reinsert cell %d: %v", ErrRollbackFailed, id, err)
			}
		}
	}
	// Truncate the log and repair the per-cell latest index.
	for i := len(t.log) - 1; i >= mark; i-- {
		r := t.log[i]
		if r.prevIdx >= 0 {
			t.latest[r.id] = r.prevIdx
		} else {
			delete(t.latest, r.id)
		}
	}
	t.log = t.log[:mark]
	if t.lastMark > mark {
		t.lastMark = mark
	}
	// Positions changed under the last realization's feet; invalidate it.
	t.l.lastMoved = t.l.lastMoved[:0]
	return firstErr
}

// Active reports whether the transaction is still open.
func (t *Txn) Active() bool { return !t.done }

// Touched returns the number of cells with at least one undo record.
func (t *Txn) Touched() int { return len(t.latest) }

// attempt runs fn for cell id under the active transaction, opening a
// short-lived one when none is active. A panic inside fn is recovered and
// converted to a *CellError wrapping ErrPanicked; on any failure the state
// mutated by fn is rolled back to the savepoint taken at entry. This is
// the transaction boundary of the engine: MLL, realization and the grid
// never leave partial state behind an error. It is also where an
// observer's metrics mirror the attempt's Stats, on every exit.
func (l *Legalizer) attempt(id design.CellID, fn func() error) (err error) {
	t := l.txn
	owned := false
	if t == nil {
		var berr error
		t, berr = l.Begin()
		if berr != nil {
			return berr
		}
		owned = true
	}
	mark := t.Mark()
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
			if owned {
				if rbErr := t.Rollback(); rbErr != nil {
					err = fmt.Errorf("%v; %w", err, rbErr)
				}
			} else if rbErr := t.RollbackTo(mark); rbErr != nil {
				err = fmt.Errorf("%v; %w", err, rbErr)
			}
			return
		}
		if owned {
			t.Commit()
		}
	}()
	return fn()
}
