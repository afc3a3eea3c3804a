package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mrlegal/internal/design"
	"mrlegal/internal/obs"
	"mrlegal/internal/verify"
)

// Legalize runs Algorithm 1 (§3) over every movable unplaced cell of the
// design: first each cell is tried at its input position (fast direct
// placement when the snapped position is free, MLL otherwise); cells that
// remain unplaced are retried in rounds with uniformly random target
// offsets growing as ±Rx·(k−1), ±Ry·(k−1) for round k.
//
// It returns an error when cells remain unplaced after Cfg.MaxRounds
// rounds (for example a cell wider than every segment), wrapping
// ErrRoundsExhausted, and one wrapping ErrCanceled when ctx ended the run
// first: the run stops at the next cell boundary (or mid-enumeration)
// once ctx is done. The design is left legal for all placed cells in
// every outcome.
func (l *Legalizer) Legalize(ctx context.Context) error {
	rep, err := l.run(ctx)
	if err != nil {
		return err
	}
	if len(rep.Failed) == 0 && !rep.TimedOut {
		return nil
	}
	if rep.TimedOut {
		return fmt.Errorf("core: %d cells unplaced when run was canceled after %d rounds: %w",
			len(rep.Failed), rep.Rounds, ErrCanceled)
	}
	return fmt.Errorf("core: %d cells still unplaced after %d rounds: %w (first: %w)",
		len(rep.Failed), rep.Rounds, ErrRoundsExhausted, rep.Failed[0].Err)
}

// LegalizeBestEffort runs Algorithm 1 but never turns partial success
// into failure: on round exhaustion, cancellation or unplaceable cells it
// returns a Report naming each failing cell and its reason, with the
// design left legal for all placed cells. The error is non-nil only for
// the non-recoverable engine fault ErrRollbackFailed, which stops the
// run where it stands.
func (l *Legalizer) LegalizeBestEffort(ctx context.Context) (*Report, error) {
	return l.run(ctx)
}

// planTarget is one cell's jittered desired position for a round. The
// targets of a whole round are drawn from the seeded rng in cell order
// before any cell is placed, so the random stream does not depend on how
// the round's attempts go.
type planTarget struct {
	tx, ty float64
}

// runState threads the bookkeeping of one run through the rounds: the
// cells placed since the undo log was last emptied, and the most recent
// failure reason per cell.
type runState struct {
	batch      []design.CellID
	sinceAudit int
	rep        *Report
	lastErr    map[design.CellID]error
	canceled   bool
	fatal      error
	targets    []planTarget // per-round target buffer, reused

	// home holds round-1 targets that differ from (GX, GY): a delta
	// batch's targets (session.go). Nil on full runs.
	home map[design.CellID]planTarget
	// delta keeps every round's records in the log for the delta batch
	// to commit or roll back as one: rounds skip the audit, since an
	// audit commit would land part of the batch.
	delta bool
	// retried sums the cells entering each round after the first.
	retried int
}

// run is the engine shared by the strict and best-effort entry points.
func (l *Legalizer) run(ctx context.Context) (*Report, error) {
	rep := &Report{}
	st := &runState{rep: rep, lastErr: make(map[design.CellID]error)}
	var runStart time.Time
	if l.om != nil {
		runStart = time.Now()
	}

	var unplaced []design.CellID
	for i := range l.D.Cells {
		c := &l.D.Cells[i]
		if !c.Fixed && !c.Dead && !c.Placed {
			unplaced = append(unplaced, c.ID)
		}
	}
	sort.Slice(unplaced, func(i, j int) bool {
		if l.Cfg.TallFirst {
			hi, hj := l.D.Cell(unplaced[i]).H, l.D.Cell(unplaced[j]).H
			if hi != hj {
				return hi > hj
			}
		}
		return unplaced[i] < unplaced[j]
	})

	// Prescreen cells no round can ever place, so they fail fast with a
	// precise reason instead of burning the whole round budget: a cell
	// wider than every segment of every compatible row, and one whose
	// input position is not a usable target (validTarget).
	var prescreened []CellFailure
	feasible := unplaced[:0]
	for _, id := range unplaced {
		c := l.D.Cell(id)
		switch {
		case !l.widthFits(l.D.MasterOf(id), c.W, c.H):
			prescreened = append(prescreened, CellFailure{Cell: id, Name: c.Name, Err: ErrCellTooWide})
		case !validTarget(c.GX, c.GY):
			prescreened = append(prescreened, CellFailure{Cell: id, Name: c.Name, Err: ErrInvalidTarget})
		default:
			feasible = append(feasible, id)
		}
	}
	unplaced = feasible

	l.runCtx = ctx
	defer func() { l.runCtx = nil }()

	unplaced = l.ladder(unplaced, st)
	if st.fatal == nil {
		l.commit()
	} else {
		// A failed rollback ends the run where it stands; no later
		// boundary may roll back to records written before it.
		l.undo.drop()
	}
	rep.TimedOut = st.canceled

	for _, f := range prescreened {
		rep.Failed = append(rep.Failed, f)
		if l.om != nil {
			// Prescreened cells never reach the attempt loop; record them
			// here so the trace accounts for every movable cell.
			l.om.attempts.Inc()
			l.om.attemptFailures.Inc()
			l.om.o.RecordCell(obs.CellEvent{
				Cell:    int(f.Cell),
				Outcome: outcomeFor(f.Err),
			})
		}
	}
	for _, id := range unplaced {
		reason := st.lastErr[id]
		if reason == nil {
			reason = ErrRoundsExhausted
		}
		rep.Failed = append(rep.Failed, CellFailure{Cell: id, Name: l.D.Cell(id).Name, Err: reason})
	}
	for i := range l.D.Cells {
		c := &l.D.Cells[i]
		if c.Fixed || !c.Placed {
			continue
		}
		rep.Placed++
		if disp := c.DispSites(l.D.SiteW, l.D.SiteH); disp > rep.MaxDisp {
			rep.MaxDisp = disp
		}
	}
	rep.TotalDisp, rep.AvgDisp = l.D.TotalDispSites()
	rep.Stats = l.sc.stats
	rep.Phases = l.sc.phases
	if l.om != nil {
		l.observeRun(rep, time.Since(runStart))
	}
	return rep, st.fatal
}

// ladder is Algorithm 1's retry ladder, shared by full runs and delta
// batches (session.go): it places cells in rounds k = 1, 2, ... until
// none is left, MaxRounds is spent, l.runCtx is done or a fatal error
// stops it, and returns the cells still unplaced.
func (l *Legalizer) ladder(cells []design.CellID, st *runState) []design.CellID {
	for k := 1; len(cells) > 0; k++ {
		if l.runCtx.Err() != nil {
			st.canceled = true
			for _, id := range cells {
				st.lastErr[id] = ErrCanceled
			}
			break
		}
		if k > l.Cfg.MaxRounds {
			break
		}
		st.rep.Rounds++
		if k > 1 {
			l.sc.stats.RetryRounds++
			st.retried += len(cells)
		}
		if l.om != nil {
			l.om.rounds.Inc()
			l.om.unplaced.Set(int64(len(cells)))
		}
		cells = l.placeRound(cells, k, st)
		if st.fatal != nil {
			break
		}
	}
	return cells
}

// roundTargets fills st.targets with the desired position of every cell
// for round k, consuming the seeded rng in strict cell order. Round 1
// uses the home positions — (GX, GY) unless st.home says otherwise — and
// draws nothing, matching Algorithm 1.
func (l *Legalizer) roundTargets(cells []design.CellID, k, rx, ry int, st *runState) []planTarget {
	if cap(st.targets) < len(cells) {
		st.targets = make([]planTarget, len(cells))
	}
	st.targets = st.targets[:len(cells)]
	bounds := l.D.Bounds()
	for i, id := range cells {
		c := l.D.Cell(id)
		tx, ty := c.GX, c.GY
		if p, ok := st.home[id]; ok {
			tx, ty = p.tx, p.ty
		}
		if k > 1 {
			// Retry jitter follows the (escalated) radii so late-round
			// retries explore a region as large as the window they get,
			// clamped to the die: an off-chip target centers the MLL window
			// over empty space and wastes the round.
			tx += float64(l.rng.rangeInt(rx * (k - 1)))
			ty += float64(l.rng.rangeInt(ry * (k - 1)))
			tx = math.Min(math.Max(tx, float64(bounds.X)), float64(bounds.X2()-c.W))
			ty = math.Min(math.Max(ty, float64(bounds.Y)), float64(bounds.Y2()-c.H))
		}
		st.targets[i] = planTarget{tx: tx, ty: ty}
	}
	return st.targets
}

// placeRound attempts one Algorithm-1 pass over the given cells, round
// k ≥ 1, one cell at a time in round order, and returns the cells that
// remain unplaced. Window escalation, an extension over the paper: after
// round 4 the local-region window grows with the round number until it
// covers the chip. The paper's Algorithm 1 retries forever with a fixed
// window, which can live-lock on dense instances whose solutions need
// compaction beyond one window; escalation makes those terminate, and it
// never triggers on instances the fixed window solves within four
// rounds. An attempt whose rollback failed (ErrRollbackFailed) stops the
// run through st.fatal.
func (l *Legalizer) placeRound(cells []design.CellID, k int, st *runState) []design.CellID {
	rx, ry := l.Cfg.Rx, l.Cfg.Ry
	if k > 4 {
		scale := 1 + (k-4)/2
		rx *= scale
		ry *= scale
	}
	targets := l.roundTargets(cells, k, rx, ry, st)
	var failed []design.CellID
	for i, id := range cells {
		if l.runCtx.Err() != nil {
			st.canceled = true
			for _, rest := range cells[i:] {
				st.lastErr[rest] = ErrCanceled
			}
			failed = append(failed, cells[i:]...)
			break
		}
		var s0 Stats
		var t0 time.Time
		if l.om != nil {
			s0 = l.sc.stats
			t0 = time.Now()
		}
		err := l.attempt(id, func() error {
			return l.place(id, targets[i].tx, targets[i].ty, rx, ry, true)
		})
		if l.om != nil {
			l.observeAttempt(id, k, rx, ry, s0, time.Since(t0), err)
		}
		if err != nil {
			st.lastErr[id] = err
			failed = append(failed, id)
			if errors.Is(err, ErrRollbackFailed) {
				st.fatal = err
				failed = append(failed, cells[i+1:]...)
				break
			}
			continue
		}
		st.batch = append(st.batch, id)
		st.sinceAudit++
		failed = append(failed, l.maybeAudit(st)...)
		if st.fatal != nil {
			failed = append(failed, cells[i+1:]...)
			break
		}
	}
	return failed
}

// maybeAudit runs after each placed cell. Under st.delta it does
// nothing, because a delta batch never audits. With audits off, nothing
// can roll back past the placement just made, so it drops the undo
// records without counting a commit, and the batch is one cell.
// Otherwise it runs the periodic invariant audit when due. On a
// violation (real or injected) it rolls the log back to 0, the last
// committed state, and returns the unwound cells so the round re-queues
// them; otherwise it commits the batch.
func (l *Legalizer) maybeAudit(st *runState) []design.CellID {
	if st.delta {
		return nil
	}
	if l.Cfg.AuditEvery <= 0 {
		l.undo.drop()
		st.batch = st.batch[:0]
		return nil
	}
	if st.sinceAudit < l.Cfg.AuditEvery {
		return nil
	}
	st.rep.AuditRuns++
	st.sinceAudit = 0
	if l.om != nil {
		l.om.auditRuns.Inc()
	}
	if !l.auditFails() {
		l.commit()
		st.batch = st.batch[:0]
		return nil
	}
	st.rep.AuditRollbacks++
	if l.om != nil {
		l.om.auditRollbacks.Inc()
	}
	if err := l.rollback(); err != nil {
		st.fatal = err
		return nil
	}
	rolledBack := append([]design.CellID(nil), st.batch...)
	for _, id := range rolledBack {
		st.lastErr[id] = ErrAuditFailed
	}
	st.batch = st.batch[:0]
	return rolledBack
}

// auditFails runs the mid-run invariant audit — the injected fault hook,
// then verify.Check and the grid's consistency check — and reports a
// violation. The caller commits or rolls back the undo log.
func (l *Legalizer) auditFails() bool {
	if l.Cfg.Faults != nil && l.Cfg.Faults.OnAudit() {
		return true
	}
	return len(verify.Check(l.D, verify.Options{PowerAlignment: l.Cfg.PowerAlign, Extra: l.Cfg.Constraints.Checkers()}, 1)) > 0 ||
		l.G.CheckConsistency() != nil
}

// lift records cell id in the undo log and takes it out of the grid,
// leaving it unplaced: the first step of every move and resize.
func (l *Legalizer) lift(id design.CellID) {
	l.touch(id)
	if l.D.Cell(id).Placed {
		l.G.Remove(id)
		l.D.Unplace(id)
	}
}

// validTarget reports whether (tx, ty) is a usable desired position: both
// coordinates finite and within ±design.MaxCoord. Go converts NaN, an
// infinity or an out-of-range float to int in an implementation-dependent
// way, so such a target could place differently on another GOARCH.
func validTarget(tx, ty float64) bool {
	return math.Abs(tx) <= design.MaxCoord && math.Abs(ty) <= design.MaxCoord
}

// snap returns the nearest site-aligned, row-contained and (when power
// alignment is on) rail-compatible position to (tx, ty) for cell c. ok is
// false when the design has no compatible row for the cell.
func (l *Legalizer) snap(c *design.Cell, tx, ty float64) (x, y int, ok bool) {
	d := l.D
	maxY := d.NumRows() - c.H
	if maxY < 0 {
		return 0, 0, false
	}
	y = clampInt(int(math.Round(ty)), 0, maxY)
	if l.Cfg.PowerAlign {
		m := d.MasterOf(c.ID)
		if !d.RailCompatible(m, y) {
			// Pick the nearer compatible neighbor row (even-height cells
			// sit on alternating rows, so a compatible row is at ±1).
			lo, hi := y-1, y+1
			switch {
			case lo >= 0 && hi <= maxY:
				if ty-float64(lo) <= float64(hi)-ty {
					y = lo
				} else {
					y = hi
				}
			case lo >= 0:
				y = lo
			case hi <= maxY:
				y = hi
			default:
				return 0, 0, false
			}
			if !d.RailCompatible(m, y) {
				return 0, 0, false
			}
		}
	}
	row := d.RowAt(y)
	if row.Span.Len() < c.W {
		return 0, 0, false
	}
	x = clampInt(int(math.Round(tx)), row.Span.Lo, row.Span.Hi-c.W)
	return x, y, true
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MoveCell places cell id as close as possible to the desired position
// (tx, ty), keeping the placement legal at every instant (the "instant
// legalization" usage of §1: detailed placement moves, gate sizing,
// buffer insertion): directly when the nearest site-aligned,
// rail-compatible position is free, through MLL otherwise. A placed cell
// is lifted out first; an unplaced one, such as an inserted buffer, is
// simply placed. The move runs as one attempt on the undo log: on any
// failure — including a panic mid-realization — it returns why
// (wrapping ErrNoInsertionPoint, ErrFixedCell, ErrInvalidTarget,
// ErrPanicked, ...) and the design is unchanged.
func (l *Legalizer) MoveCell(id design.CellID, tx, ty float64) error {
	if l.D.Cell(id).Fixed {
		return l.cellErr(id, ErrFixedCell)
	}
	if !validTarget(tx, ty) {
		return l.cellErr(id, ErrInvalidTarget)
	}
	return l.edit(id, func() error {
		l.lift(id)
		return l.place(id, tx, ty, l.Cfg.Rx, l.Cfg.Ry, true)
	})
}

// ResizeCell changes the width of a cell (gate sizing) and, when it is
// placed, locally re-legalizes it near its current position. The cell
// keeps its master index; only the instance width changes. It runs as
// one attempt on the undo log, so every failure path restores the
// original width and position.
func (l *Legalizer) ResizeCell(id design.CellID, newW int) error {
	if newW < 1 {
		return l.cellErr(id, ErrInvalidWidth)
	}
	c := l.D.Cell(id)
	if c.Fixed {
		return l.cellErr(id, ErrFixedCell)
	}
	if !c.Placed {
		// No position to re-legalize, but the new width must still fit
		// some segment or the cell is guaranteed unplaceable later.
		if !l.widthFits(l.D.MasterOf(id), newW, c.H) {
			return l.cellErr(id, ErrCellTooWide)
		}
		c.W = newW
		return nil
	}
	oldX, oldY := c.X, c.Y
	return l.edit(id, func() error {
		if !l.widthFits(l.D.MasterOf(id), newW, c.H) {
			return ErrCellTooWide
		}
		l.lift(id)
		c.W = newW
		return l.place(id, float64(oldX), float64(oldY), l.Cfg.Rx, l.Cfg.Ry, true)
	})
}
