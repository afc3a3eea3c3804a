package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mrlegal/internal/design"
	"mrlegal/internal/sched"
	"mrlegal/internal/verify"
)

// This file implements the spatially-sharded round driver, the only
// parallel round driver, selected by Config.Shards (or Config.Workers
// when Shards is 0; see roundShards). The shape of one round:
//
//	schedule ─▶ K shard workers place their interior cells concurrently
//	            (plan under gridMu.RLock, commit under gridMu.Lock on a
//	            per-shard batch transaction) — zero claim traffic
//	         └▶ one seam thread places the boundary-crossing cells
//	            sequentially in round order, running concurrently with
//	            the shard workers
//
// Routing comes from sched.BuildShardSchedule: the die's x-extent is
// split into K contiguous column spans at quantiles of the round's claim
// centers; a cell is *interior* to the shard whose span contains its
// whole (clamped) claim, and a *seam* cell otherwise. Why the schedule
// is byte-identical to serial:
//
//   - Two cells with disjoint claims commute: by the §2.1.3 locality
//     argument each one's plan reads, and its commit writes, only state
//     inside its own claim.
//   - Interior claims of different shards lie in disjoint column spans,
//     so they can never conflict; same-shard interior conflicts are
//     executed in round order by that shard's single worker, and
//     seam-seam conflicts in round order by the seam thread.
//   - The only conflicting pairs that straddle threads are
//     seam↔interior. For each, the schedule carries a dependency edge
//     and the later cell's thread waits — on a shared progress board —
//     until the earlier cell's thread has executed past it, so the pair
//     keeps its serial relative order.
//   - Every thread works in ascending round order and every edge points
//     at a strictly earlier round index, so the globally earliest
//     unexecuted cell is always runnable: no deadlock. Any execution
//     order preserving the relative order of every conflicting pair
//     yields the serial final state, and the strict betterCand total
//     order leaves no tie for scheduling to break. So the sharded round
//     ≡ serial, for any K.
//
// Concurrency: workers plan against the live grid under gridMu's read
// side (planCell), then take the write side for the whole
// commit-attempt-rollback-audit critical section, installing their own
// detached batch transaction into the legalizer's txn slot so the shared
// touch plumbing routes to it. Interior commits of different
// shards touch disjoint state, so the lock only serializes the (short)
// mutation windows, never the planning; on a multi-core box the
// enumerate/evaluate work — the dominant cost — runs fully in parallel
// with no per-cell scheduler round-trips.
//
// Bookkeeping discipline: threads accumulate stats in their own scratch
// shards, failures in their own lists, and audit counts in their own
// fields; the coordinator folds everything in lane order (shards
// 0..K-1, seam thread last) after the join so every deterministic total
// is a fixed-order sum. Failed cells are reported sorted by round
// index, matching the serial driver's order (audit-rollback reruns
// excepted).

// shardFail records one failed round index; a nil err means "keep the
// cell's previous failure reason" (early stop, not a fresh verdict).
type shardFail struct {
	idx int
	err error
}

// shardWorker is the per-thread state of one shard worker or the seam
// thread (shard == sched.SeamShard, lane K).
type shardWorker struct {
	shard int   // owning shard, or sched.SeamShard for the seam thread
	wid   int   // progress-board lane and scratch slot (seam: K)
	idxs  []int // round indices of the thread's cells, ascending
	sc    *scratch
	txn   *Txn // detached per-thread batch transaction

	batch          []int // round indices placed since the last per-thread audit commit
	sinceAudit     int
	auditRuns      int
	auditRollbacks int
	dispatched     int // seam thread: cells actually executed

	failed   []shardFail
	rest     []int // unprocessed indices after an early stop
	canceled bool
	fatal    error
}

// shardProgress is the round's progress board: last[w] is the highest
// round index lane w has executed (committed or failed), or -1. Lane K
// belongs to the seam thread. Dependency waits block on the condition
// variable; stop wakes every waiter for cancellation or a fatal error.
type shardProgress struct {
	mu      sync.Mutex
	cond    *sync.Cond
	last    []int
	stopped bool
}

func newShardProgress(lanes int) *shardProgress {
	p := &shardProgress{last: make([]int, lanes)}
	for i := range p.last {
		p.last[i] = -1
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// advance records that lane w executed round index idx and wakes
// waiters. Threads process their cells in ascending round order, so
// last[w] is monotonic.
func (p *shardProgress) advance(w, idx int) {
	p.mu.Lock()
	p.last[w] = idx
	p.mu.Unlock()
	p.cond.Broadcast()
}

// wait blocks until lane w has executed past round index need; it
// returns false if the board was stopped instead.
func (p *shardProgress) wait(w, need int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.stopped && p.last[w] < need {
		p.cond.Wait()
	}
	return !p.stopped
}

// stop wakes every waiter and makes all future waits fail.
func (p *shardProgress) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// claimFor computes the 2-D reservation of one round cell: the union
// bounding box of its MLL window and its snapped direct-placement
// footprint (the snap position depends only on static row data, so it is
// computable before any planning). Every grid read that can influence the
// cell's plan, and every write its commit can make, falls inside this
// box, which is what lets the shard schedule treat disjoint claims as
// independent.
func (l *Legalizer) claimFor(id design.CellID, tx, ty float64, rx, ry int) sched.Claim {
	c := l.D.Cell(id)
	xc := int(math.Round(tx))
	yc := int(math.Round(ty))
	cl := sched.Claim{
		X0: xc - rx, X1: xc + rx + c.W,
		Y0: yc - ry, Y1: yc + ry + c.H,
	}
	if x, y, ok := l.snap(c, tx, ty); ok {
		cl.X0 = min(cl.X0, x)
		cl.X1 = max(cl.X1, x+c.W)
		cl.Y0 = min(cl.Y0, y)
		cl.Y1 = max(cl.Y1, y+c.H)
	}
	if l.cons != nil {
		// Constraint plugins read one max-gap of context beyond the window
		// (inflated extraction span, direct-placement neighbor probe), so
		// the reservation widens by the same margin to keep concurrent plans
		// conflict-serialized on everything they can observe.
		if mg := l.cons.MaxGap(); mg > 0 {
			cl.X0 -= mg
			cl.X1 += mg
		}
	}
	return cl
}

// placeRoundShard is placeRound's sharded engine. cells and targets are
// parallel slices in round order; rx, ry are the round's window radii and
// k is the requested shard count (≥ 2, already capped by the cell count).
func (l *Legalizer) placeRoundShard(cells []design.CellID, targets []planTarget, round, rx, ry, k int, st *runState) []design.CellID {
	n := len(cells)
	sp := l.G.XSpan()
	claims := make([]sched.Claim, n)
	centers := make([]int, n)
	maxW := 1
	for i, id := range cells {
		cl := l.claimFor(id, targets[i].tx, targets[i].ty, rx, ry)
		claims[i] = cl
		x0, x1 := max(cl.X0, sp.Lo), min(cl.X1, sp.Hi)
		if w := x1 - x0; w > maxW {
			maxW = w
		}
		centers[i] = clampInt((cl.X0+cl.X1)/2, sp.Lo, sp.Hi-1)
	}
	// Min span width of twice the widest clamped claim keeps the seam
	// population proportional to the boundary count: a claim can overlap
	// at most two spans, and a random x-position crosses a boundary with
	// probability ≈ K·maxW/dieWidth.
	plan := sched.PlanShards(sp.Lo, sp.Hi, k, 2*maxW, centers)
	K := plan.K()
	schedule := sched.BuildShardSchedule(plan, claims)
	interior := make([][]int, K)
	var seam []int
	for i := range claims {
		if s := schedule.Shard[i]; s == sched.SeamShard {
			seam = append(seam, i)
		} else {
			interior[s] = append(interior[s], i)
		}
	}
	l.shardCounters.Add(schedule.Counters())
	if l.om != nil {
		ctr := schedule.Counters()
		l.om.roundWorkers.Set(int64(K))
		l.om.shardInterior.Add(ctr.Interior)
		l.om.shardSeam.Add(ctr.Seam)
		l.om.shardSyncEdges.Add(ctr.SyncEdges)
	}

	// Launch the K shard workers plus the seam thread (lane K), all
	// coordinated through the progress board.
	for len(l.shardScrs) < K+1 {
		l.shardScrs = append(l.shardScrs, newScratch())
	}
	workers := make([]*shardWorker, K+1)
	prog := newShardProgress(K + 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for s := 0; s <= K; s++ {
		w := &shardWorker{shard: s, wid: s, sc: l.shardScrs[s], txn: newDetachedTxn(l)}
		if s == K {
			w.shard = sched.SeamShard
			w.idxs = seam
		} else {
			w.idxs = interior[s]
		}
		workers[s] = w
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			l.runShardWorker(w, schedule, prog, cells, targets, round, rx, ry, &stop)
		}(w)
	}
	// Dependency waits block on a condition variable, which a context
	// cancellation cannot wake on its own — watch for it. The Done
	// channel is captured here because the watcher may still be draining
	// after the join, when the run tears down its context slot.
	watchDone := make(chan struct{})
	ctxDone := l.runCtx.Done()
	go func() {
		select {
		case <-ctxDone:
			prog.stop()
		case <-watchDone:
		}
	}()
	wg.Wait()
	close(watchDone)

	// Fold in lane order (shards 0..K-1, then the seam thread): commit
	// the surviving per-thread transactions, merge stats shards and
	// collect per-thread failure lists.
	var fails []shardFail
	for _, w := range workers {
		if w.txn != nil && w.txn.Active() {
			w.txn.Commit()
		}
		l.mergeScratch(w.sc)
		st.rep.AuditRuns += w.auditRuns
		st.rep.AuditRollbacks += w.auditRollbacks
		l.shardCounters.SeamDispatched += int64(w.dispatched)
		fails = append(fails, w.failed...)
		for _, idx := range w.rest {
			fails = append(fails, shardFail{idx: idx})
		}
		if w.canceled {
			st.canceled = true
		}
		if w.fatal != nil && st.fatal == nil {
			st.fatal = w.fatal
		}
	}

	// Report failures sorted by round index — the serial encounter order.
	sort.Slice(fails, func(i, j int) bool { return fails[i].idx < fails[j].idx })
	failed := make([]design.CellID, 0, len(fails))
	for _, f := range fails {
		id := cells[f.idx]
		err := f.err
		if err == nil && st.canceled {
			err = ErrCanceled
		}
		if err != nil {
			st.lastErr[id] = err
		}
		failed = append(failed, id)
	}
	return failed
}

// runShardWorker is the loop of one shard worker or the seam thread:
// wait out the cell's cross-thread dependency edges, plan it against
// the live grid under the read lock, then run the whole commit —
// attempt, rollback and the per-thread audit — as one critical section
// under the write lock, with the thread's batch transaction installed in
// the legalizer's slot so the shared touch plumbing routes to it.
func (l *Legalizer) runShardWorker(w *shardWorker, schedule *sched.ShardSchedule, prog *shardProgress, cells []design.CellID, targets []planTarget, round, rx, ry int, stop *atomic.Bool) {
	K := schedule.K()
	for pos, idx := range w.idxs {
		if stop.Load() || l.runCtx.Err() != nil {
			if l.runCtx.Err() != nil {
				w.canceled = true
			}
			w.rest = w.idxs[pos:]
			return
		}
		// Honor the dependency edges: a seam cell waits for every
		// conflicting earlier interior cell, an interior cell for its
		// latest conflicting earlier seam cell.
		ok := true
		if w.shard == sched.SeamShard {
			for s := 0; s < K && ok; s++ {
				if need := schedule.NeedShard(idx, s); need >= 0 {
					ok = prog.wait(s, int(need))
				}
			}
		} else if need := schedule.NeedSeam[idx]; need >= 0 {
			ok = prog.wait(K, int(need))
		}
		if !ok {
			if l.runCtx.Err() != nil {
				w.canceled = true
			}
			w.rest = w.idxs[pos:]
			return
		}
		if w.shard == sched.SeamShard {
			w.dispatched++
		}
		id := cells[idx]
		var s0 Stats
		var t0 time.Time
		if l.om != nil {
			s0 = w.sc.stats
			t0 = time.Now()
			w.sc.worker = w.wid
		}
		l.planCell(w.sc, id, targets[idx].tx, targets[idx].ty, rx, ry)
		if l.om != nil {
			l.om.workerPlans.Add(w.wid, 1)
		}
		l.gridMu.Lock()
		prev := l.txn
		l.txn = w.txn
		err := l.attempt(id, func() error { return l.commitPlan(w.sc) })
		var rolled []int
		if err == nil {
			w.batch = append(w.batch, idx)
			w.sinceAudit++
			rolled = l.shardAudit(w)
		}
		w.txn = l.txn // the audit may have rotated the batch transaction
		l.txn = prev
		l.gridMu.Unlock()
		prog.advance(w.wid, idx)
		if l.om != nil {
			l.observeAttempt(id, round, rx, ry, w.wid, s0, &w.sc.stats, time.Since(t0), err)
		}
		if err != nil {
			w.failed = append(w.failed, shardFail{idx: idx, err: err})
		}
		for _, ri := range rolled {
			w.failed = append(w.failed, shardFail{idx: ri, err: ErrAuditFailed})
		}
		if w.fatal != nil {
			stop.Store(true)
			prog.stop()
			if pos+1 < len(w.idxs) {
				w.rest = w.idxs[pos+1:]
			}
			return
		}
	}
}

// shardAudit is maybeAudit for one shard thread's batch transaction.
// Callers hold gridMu's write side with w.txn installed in the slot, so
// the verifier sees a quiescent design. Cadence is per thread — each
// lane audits after its own AuditEvery placements — so audit
// bookkeeping differs from the serial driver's global cadence, but every
// rollback restores a state the thread's own transaction log covers:
// other lanes' commits touch disjoint or already-ordered state and
// survive untouched. The returned round indices are the cells unwound
// by a violation.
func (l *Legalizer) shardAudit(w *shardWorker) []int {
	if l.Cfg.AuditEvery <= 0 || w.sinceAudit < l.Cfg.AuditEvery {
		return nil
	}
	w.auditRuns++
	w.sinceAudit = 0
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
	var rolled []int
	if bad {
		w.auditRollbacks++
		if l.om != nil {
			l.om.auditRollbacks.Inc()
		}
		rolled = append(rolled, w.batch...)
		if err := l.txn.Rollback(); err != nil {
			w.fatal = err
			return nil
		}
	} else {
		l.txn.Commit()
	}
	if _, err := l.Begin(); err != nil {
		w.fatal = err
		return rolled
	}
	w.batch = w.batch[:0]
	return rolled
}

// ShardCounters returns the cumulative shard-routing activity of sharded
// rounds (zero otherwise). They are deterministic for a fixed input and
// configuration.
func (l *Legalizer) ShardCounters() sched.ShardCounters { return l.shardCounters }

// SchedCounters always returns zero counters: no driver schedules claims
// cell by cell. It stays for callers that read the counters.
func (l *Legalizer) SchedCounters() sched.Counters { return sched.Counters{} }
