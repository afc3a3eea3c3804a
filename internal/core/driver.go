package core

import (
	"context"
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
// rounds (for example a cell wider than every segment). The design is
// left legal for all placed cells in every outcome.
func (l *Legalizer) Legalize() error {
	return l.LegalizeCtx(context.Background())
}

// LegalizeCtx is Legalize with cancellation: the run stops at the next
// cell boundary (or mid-enumeration) once ctx is done and returns an
// error wrapping ErrCanceled. Cells placed before cancellation stay
// placed and legal.
func (l *Legalizer) LegalizeCtx(ctx context.Context) error {
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
// non-recoverable engine faults (ErrRollbackFailed, ErrTxnActive).
func (l *Legalizer) LegalizeBestEffort(ctx context.Context) (*Report, error) {
	return l.run(ctx)
}

// planTarget is one cell's jittered desired position for a round. The
// targets of a whole round are drawn from the seeded rng in cell order
// before any planning starts, so the random stream is identical at every
// shard count.
type planTarget struct {
	tx, ty float64
}

// runState threads the transactional bookkeeping of one run through the
// rounds: the open batch transaction, the cells placed since the last
// commit, and the most recent failure reason per cell.
type runState struct {
	txn        *Txn
	batch      []design.CellID
	sinceAudit int
	rep        *Report
	lastErr    map[design.CellID]error
	canceled   bool
	fatal      error
	targets    []planTarget // per-round target buffer, reused
}

// run is the engine shared by the strict and best-effort entry points.
func (l *Legalizer) run(ctx context.Context) (*Report, error) {
	l.syncConstraints()
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

	// Prescreen cells no round can ever place (wider than every segment of
	// every compatible row) so they fail fast with a precise reason
	// instead of burning the whole round budget.
	var infeasible []design.CellID
	feasible := unplaced[:0]
	for _, id := range unplaced {
		c := l.D.Cell(id)
		if l.widthFits(l.D.MasterOf(id), c.W, c.H) {
			feasible = append(feasible, id)
		} else {
			infeasible = append(infeasible, id)
		}
	}
	unplaced = feasible

	l.runCtx = ctx
	defer func() { l.runCtx = nil }()

	t, err := l.Begin()
	if err != nil {
		return rep, err
	}
	st.txn = t

	for k := 1; len(unplaced) > 0; k++ {
		if ctx.Err() != nil {
			st.canceled = true
			for _, id := range unplaced {
				st.lastErr[id] = ErrCanceled
			}
			break
		}
		if k > l.Cfg.MaxRounds {
			break
		}
		rep.Rounds++
		if k > 1 {
			l.stats.RetryRounds++
		}
		if l.om != nil {
			l.om.rounds.Inc()
			l.om.unplaced.Set(int64(len(unplaced)))
		}
		unplaced = l.placeRound(unplaced, k, st)
		if st.fatal != nil {
			break
		}
	}
	if st.txn != nil && st.txn.Active() {
		st.txn.Commit()
	}
	rep.TimedOut = st.canceled

	for _, id := range infeasible {
		rep.Failed = append(rep.Failed, CellFailure{Cell: id, Name: l.D.Cell(id).Name, Err: ErrCellTooWide})
		if l.om != nil {
			// Prescreened cells never reach the attempt loop; record them
			// here so the trace accounts for every movable cell.
			l.om.attempts.Inc()
			l.om.attemptFailures.Inc()
			l.om.o.RecordCell(obs.CellEvent{
				Cell:    int(id),
				Outcome: obs.OutcomeTooWide,
				Worker:  -1,
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
	rep.Stats = l.stats
	rep.ShardRouting = l.shardCounters
	rep.Phases = l.phases
	if l.om != nil {
		l.observeRun(rep, time.Since(runStart))
	}
	return rep, st.fatal
}

// roundShards resolves the shard count of a round over n cells:
// Cfg.Shards, or Cfg.Workers when Shards is 0, capped by the cell count.
// A count above 1 selects the spatially-sharded driver (shard.go);
// anything else, including the default Workers = 0, is the serial loop.
// External solvers are always serial because a LocalSolver may carry
// mutable state the engine cannot shard.
func (l *Legalizer) roundShards(n int) int {
	if l.Cfg.Solver != nil {
		return 1
	}
	k := l.Cfg.Shards
	if k == 0 {
		k = l.Cfg.Workers
	}
	return min(k, n)
}

// roundTargets fills st.targets with the desired position of every cell
// for round k, consuming the seeded rng in strict cell order. Round 1
// uses the input positions and draws nothing, matching Algorithm 1.
func (l *Legalizer) roundTargets(cells []design.CellID, k, rx, ry int, st *runState) []planTarget {
	if cap(st.targets) < len(cells) {
		st.targets = make([]planTarget, len(cells))
	}
	st.targets = st.targets[:len(cells)]
	bounds := l.D.Bounds()
	for i, id := range cells {
		c := l.D.Cell(id)
		tx, ty := c.GX, c.GY
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
// k ≥ 1, and returns the cells that remain unplaced. With EscalateWindow
// on, late rounds use progressively larger local-region windows so dense
// instances whose solutions need compaction beyond one window still
// terminate. Rounds that resolve to more than one shard run the
// spatially-sharded driver, which produces the serial result.
func (l *Legalizer) placeRound(cells []design.CellID, k int, st *runState) []design.CellID {
	rx, ry := l.Cfg.Rx, l.Cfg.Ry
	if l.Cfg.EscalateWindow && k > 4 {
		scale := 1 + (k-4)/2
		rx *= scale
		ry *= scale
	}
	targets := l.roundTargets(cells, k, rx, ry, st)
	if ks := l.roundShards(len(cells)); ks > 1 {
		return l.placeRoundShard(cells, targets, k, rx, ry, ks, st)
	}
	if l.om != nil {
		l.om.roundWorkers.Set(1)
	}
	return l.placeRoundSerial(cells, targets, k, rx, ry, st)
}

// placeRoundSerial is placeRound's single-goroutine engine.
func (l *Legalizer) placeRoundSerial(cells []design.CellID, targets []planTarget, k, rx, ry int, st *runState) []design.CellID {
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
			s0 = l.stats
			t0 = time.Now()
		}
		err := l.attempt(id, func() error {
			return l.placeAt(id, targets[i].tx, targets[i].ty, rx, ry)
		})
		if l.om != nil {
			l.observeAttempt(id, k, rx, ry, -1, s0, &l.stats, time.Since(t0), err)
		}
		if err != nil {
			st.lastErr[id] = err
			failed = append(failed, id)
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

// maybeAudit runs the periodic invariant audit when due. On a violation
// (real or injected) it rolls the batch transaction back to the last
// committed state and returns the unwound cells so the round re-queues
// them; otherwise it commits the batch. A fresh transaction is opened
// either way.
func (l *Legalizer) maybeAudit(st *runState) []design.CellID {
	if l.Cfg.AuditEvery <= 0 || st.sinceAudit < l.Cfg.AuditEvery {
		return nil
	}
	st.rep.AuditRuns++
	st.sinceAudit = 0
	if l.om != nil {
		l.om.auditRuns.Inc()
	}
	bad := l.Cfg.Faults != nil && l.Cfg.Faults.OnAudit()
	if !bad && len(verify.Check(l.D, verify.Options{PowerAlignment: l.Cfg.PowerAlign, Extra: l.conCheck}, 1)) > 0 {
		bad = true
	}
	if !bad && l.G.CheckConsistency() != nil {
		bad = true
	}
	if !bad {
		st.txn.Commit()
		t, err := l.Begin()
		if err != nil {
			st.fatal = err
			return nil
		}
		st.txn = t
		st.batch = st.batch[:0]
		return nil
	}
	st.rep.AuditRollbacks++
	if l.om != nil {
		l.om.auditRollbacks.Inc()
	}
	rolledBack := append([]design.CellID(nil), st.batch...)
	if err := st.txn.Rollback(); err != nil {
		st.fatal = err
		return nil
	}
	for _, id := range rolledBack {
		st.lastErr[id] = ErrAuditFailed
	}
	t, err := l.Begin()
	if err != nil {
		st.fatal = err
		return nil
	}
	st.txn = t
	st.batch = st.batch[:0]
	return rolledBack
}

// placeAt tries the fast direct placement at the snapped target position
// and falls back to MLL with the given window half-extent, as one
// plan-then-commit step on the serial scratch. It must run inside a
// transaction boundary (attempt).
func (l *Legalizer) placeAt(id design.CellID, tx, ty float64, rx, ry int) error {
	sc := l.scratchFor()
	l.planCell(sc, id, tx, ty, rx, ry)
	err := l.commitPlan(sc)
	l.mergeScratch(sc)
	return err
}

// PlaceCell places the unplaced cell id as close as possible to the
// desired position (tx, ty): directly when the nearest site-aligned,
// rail-compatible position is free, through MLL otherwise. It reports
// success; on failure the design is unchanged.
func (l *Legalizer) PlaceCell(id design.CellID, tx, ty float64) bool {
	return l.TryPlaceCell(id, tx, ty) == nil
}

// TryPlaceCell is PlaceCell with a structured error: on failure it
// reports why the cell could not be placed (wrapping ErrNoInsertionPoint,
// ErrCellTooWide, ErrPanicked, ...), with all intermediate state rolled
// back.
func (l *Legalizer) TryPlaceCell(id design.CellID, tx, ty float64) error {
	l.syncConstraints()
	c := l.D.Cell(id)
	if c.Placed {
		panic("core: PlaceCell target must be unplaced")
	}
	return l.attempt(id, func() error {
		return l.placeAt(id, tx, ty, l.Cfg.Rx, l.Cfg.Ry)
	})
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

// MoveCell relocates a placed cell toward (tx, ty) using MLL, keeping the
// placement legal at every instant (the "instant legalization" usage of
// §1: detailed placement moves, gate sizing, buffer insertion). On
// failure the cell keeps its original position and the design is
// unchanged.
func (l *Legalizer) MoveCell(id design.CellID, tx, ty float64) bool {
	return l.TryMoveCell(id, tx, ty) == nil
}

// TryMoveCell is MoveCell with a structured error. The move runs inside a
// transaction: any failure — including a panic mid-realization — rolls
// the cell back to its original position with the grid intact.
func (l *Legalizer) TryMoveCell(id design.CellID, tx, ty float64) error {
	l.syncConstraints()
	c := l.D.Cell(id)
	if c.Fixed {
		return l.cellErr(id, ErrFixedCell)
	}
	if !c.Placed {
		return l.TryPlaceCell(id, tx, ty)
	}
	return l.attempt(id, func() error {
		l.touch(id)
		l.G.Remove(id)
		l.D.Unplace(id)
		return l.placeAt(id, tx, ty, l.Cfg.Rx, l.Cfg.Ry)
	})
}

// ResizeCell changes the width of a placed cell (gate sizing) and locally
// re-legalizes it near its current position. On failure the original
// width and position are restored. The cell keeps its master index; only
// the instance width changes.
func (l *Legalizer) ResizeCell(id design.CellID, newW int) bool {
	return l.TryResizeCell(id, newW) == nil
}

// TryResizeCell is ResizeCell with a structured error, run inside a
// transaction so every failure path restores the original width and
// position.
func (l *Legalizer) TryResizeCell(id design.CellID, newW int) error {
	l.syncConstraints()
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
		l.touch(id)
		c.W = newW
		return nil
	}
	oldX, oldY := c.X, c.Y
	return l.attempt(id, func() error {
		if !l.widthFits(l.D.MasterOf(id), newW, c.H) {
			return ErrCellTooWide
		}
		l.touch(id)
		l.G.Remove(id)
		l.D.Unplace(id)
		c.W = newW
		return l.placeAt(id, float64(oldX), float64(oldY), l.Cfg.Rx, l.Cfg.Ry)
	})
}
