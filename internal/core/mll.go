package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"mrlegal/internal/constraint"
	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/obs"
	"mrlegal/internal/segment"
)

// Config tunes the legalizer. The zero value is NOT usable; start from
// DefaultConfig.
type Config struct {
	// Rx, Ry set the local-region window half-extent in sites and rows:
	// the window is (x_t−Rx, y_t−Ry, 2Rx+w_t, 2Ry+h_t). The paper uses
	// Rx = 30, Ry = 5.
	Rx, Ry int

	// PowerAlign enforces the power-rail alignment constraint (even-height
	// cells only on rows of matching rail parity). Table 1's right half
	// relaxes it.
	PowerAlign bool

	// ExactEval switches insertion-point evaluation from the paper's
	// neighbor-only approximation (§5.2) to exact critical-position
	// propagation. Off by default, matching the paper.
	ExactEval bool

	// Seed drives the retry-offset random stream of Algorithm 1.
	Seed int64

	// MaxRounds caps the retry iterations of Algorithm 1 (the paper loops
	// until all cells are placed; a cap turns pathological inputs into a
	// reported error instead of a hang).
	MaxRounds int

	// ExhaustiveSearch disables the best-first lower-bound search and
	// evaluates every valid insertion point, as the paper describes and as
	// this implementation did before the search landed. Both modes return
	// an identical best candidate (same cost, position and tie-break); the
	// exhaustive sweep exists as the equivalence oracle and for ablation
	// benchmarks (mrbench -experiment prune).
	ExhaustiveSearch bool

	// TallFirst places multi-row cells before single-row cells in
	// Algorithm 1 (within each class, input order). The paper places "in
	// an arbitrary order"; tall-first is the standard choice for dense
	// designs, where rail-parity row bands fragment quickly once
	// single-row cells land. On.
	TallFirst bool

	// Workers does nothing: every round runs the serial loop of
	// Algorithm 1 on the caller's goroutine. The field stays for callers
	// that still set it; Validate rejects a negative value.
	Workers int

	// PhaseTiming enables the per-phase wall-clock breakdown
	// (extract/enumerate/evaluate/realize) reported via Phases and
	// Report.Phases. Off by default: the accounting adds time syscalls to
	// the enumeration hot loop.
	PhaseTiming bool

	// Constraints composes additional placement rules on top of the
	// paper's base legality model: fence/power-domain regions, minimum
	// edge spacing between x-neighbors and triple-patterning color
	// compatibility (see internal/constraint and docs/CONSTRAINTS.md).
	// Each plugin filters insertion points during window enumeration,
	// contributes an admissible term to the best-first lower bound (so
	// pruning stays exact and search ≡ sweep holds with plugins active),
	// and registers a post-placement checker into mid-run audits. A nil
	// and an empty set are equivalent and mean no constraints: every
	// constraint.Set method is neutral on them, so the one pipeline runs
	// unchanged and placements equal a constraint-free build's
	// (golden-gated). Incompatible with an external Solver —
	// NewLegalizer rejects the combination, since solvers bypass the
	// filter-aware enumeration the rules ride on. The set may be swapped
	// between calls on one Legalizer: each placement attempt and each
	// audit reads it afresh.
	Constraints *constraint.Set

	// Solver, when non-nil, replaces the built-in enumerate-and-evaluate
	// local solver with an external one (the paper's §6 ILP baseline
	// plugs in here: "the MLL algorithm is replaced by a procedure of
	// constructing and solving the ILP problem"). Algorithm 1 and the
	// realization machinery are shared.
	Solver LocalSolver

	// AuditEvery, when positive, runs an independent invariant audit
	// (verify.Check plus grid consistency) after every AuditEvery
	// successful placements during Legalize. A violation rolls the run
	// back to the last committed state and retries the affected cells.
	// 0 disables mid-run audits.
	AuditEvery int

	// Faults, when non-nil, injects deterministic failures at the
	// engine's mutation points for chaos testing (see FaultInjector and
	// internal/faultinject). Nil in production.
	Faults FaultInjector

	// Obs, when non-nil, attaches the observability layer: the metric
	// registry and any configured trace sink (see internal/obs and
	// docs/OBSERVABILITY.md). Nil disables everything at the cost of
	// one pointer compare per instrumentation site; the
	// placement result is byte-identical either way. Attaching an
	// observer implicitly enables phase timing (the phase histograms need
	// the same clocks as Report.Phases).
	Obs *obs.Observer
}

// LocalSolver selects an insertion point and target x for one local
// legalization problem. Implementations must only return insertion points
// that are valid for the region (e.g. built via Region.IntervalAt).
type LocalSolver interface {
	// SelectInsertionPoint returns the chosen insertion point and the
	// target cell x position, or ok == false when the local problem has
	// no solution. allowRow filters the absolute bottom row (nil = all).
	SelectInsertionPoint(r *Region, c *design.Cell, tx, ty float64, allowRow func(int) bool) (ip *InsertionPoint, x int, ok bool)
}

// DefaultConfig returns the paper's parameter settings.
func DefaultConfig() Config {
	return Config{
		Rx:         30,
		Ry:         5,
		PowerAlign: true,
		ExactEval:  false,
		Seed:       1,
		MaxRounds:  64,
		TallFirst:  true,
	}
}

// Validate reports the first field of c that no run can use, or nil. It
// is the one place a setting is ranged: NewLegalizer calls it, and so
// does the job server on every config it admits. A window radius of 0
// leaves its axis no slack and no retry offset, so Rx and Ry start at 1.
func (c Config) Validate() error {
	switch {
	case c.Rx < 1 || c.Rx > 100_000:
		return fmt.Errorf("core: Config.Rx = %d, want 1..100000", c.Rx)
	case c.Ry < 1 || c.Ry > 10_000:
		return fmt.Errorf("core: Config.Ry = %d, want 1..10000", c.Ry)
	case c.MaxRounds < 1 || c.MaxRounds > 100_000:
		return fmt.Errorf("core: Config.MaxRounds = %d, want 1..100000", c.MaxRounds)
	case c.AuditEvery < 0 || c.AuditEvery > 1_000_000:
		return fmt.Errorf("core: Config.AuditEvery = %d, want 0..1000000 (0 = off)", c.AuditEvery)
	case c.Workers < 0:
		return fmt.Errorf("core: Config.Workers = %d, want >= 0", c.Workers)
	case c.Solver != nil && !c.Constraints.Empty():
		return errors.New("core: Config.Constraints cannot be combined with an external Solver (plugins ride the built-in enumeration)")
	}
	return nil
}

// Stats counts legalizer activity, for reporting and benchmarks. All
// fields are pure functions of the input and configuration, so seeded
// runs produce identical Stats (determinism tests compare them with ==).
type Stats struct {
	DirectPlacements int // cells placed with no legalization needed
	MLLCalls         int
	MLLSuccesses     int
	MLLFailures      int
	InsertionPoints  int64 // insertion points evaluated

	// Best-first search activity (all zero under ExhaustiveSearch). The
	// counters are region-local: each MLL call's incumbent evolves from
	// its own snapshot only. CandidatesPruned counts fully-formed insertion
	// points whose lower bound skipped evaluation; SearchNodesCut counts
	// partial-combination subtrees cut before reaching a candidate;
	// WindowsPruned counts candidate bottom rows never entered because the
	// y-cost bound alone exceeded the incumbent.
	CandidatesPruned int64
	SearchNodesCut   int64
	WindowsPruned    int64

	// ExtractCacheHits, ExtractCacheMisses and ExtractCacheInvalidations
	// are always zero: the engine keeps no extraction cache. They remain
	// for callers that still read them.
	ExtractCacheHits          int64
	ExtractCacheMisses        int64
	ExtractCacheInvalidations int64

	// ConstraintFiltered counts placement options rejected by the
	// active constraint set (Config.Constraints): candidate intervals
	// emptied by the target's x-clamp plus direct-placement probes
	// vetoed by a plugin. Deterministic per configuration; zero when no
	// constraints are configured.
	ConstraintFiltered int64

	CellsPushed int64 // local cells moved by realizations
	RetryRounds int   // extra Algorithm-1 rounds needed
}

// Legalizer binds a design, its segment grid and a configuration, and
// offers both full legalization (Algorithm 1) and incremental MLL calls.
//
// Concurrency contract: a Legalizer is single-goroutine. Exactly one
// goroutine may call into it at a time, and it never starts a goroutine
// of its own: every round runs on the caller's goroutine. No other
// goroutine may touch the design or the grid while a call is in flight.
type Legalizer struct {
	D   *design.Design
	G   *segment.Grid
	Cfg Config

	rng *rng

	// om holds the resolved metric handles of Cfg.Obs, nil when
	// observability is disabled. Every recording site nil-checks it; see
	// observe.go for the discipline.
	om *obsMetrics

	// lastMoved records the local cells shifted by the most recent
	// successful realization (excluding the target). Reused buffer.
	lastMoved []design.CellID

	// undo is the legalizer's one undo log, empty between calls; every
	// boundary is a savepoint on it (txn.go).
	undo undoLog

	// sc is the scratch of every placement step, single-cell API calls
	// and every round's cells alike. It also holds the Stats and
	// PhaseTimes.
	sc *scratch

	// runCtx carries the cancellation context of the current Legalize
	// run, nil outside one.
	runCtx context.Context

	// rowMaxSeg caches the widest segment length per row (segment spans
	// are static for the life of a grid). Built lazily by widthFits.
	rowMaxSeg []int
}

// LastMoved returns the cells pushed aside by the most recent successful
// MLL realization, excluding the target itself. The slice is reused by
// the next call; copy it to retain. Incremental optimizers use it to
// update net-length caches after a move.
func (l *Legalizer) LastMoved() []design.CellID { return l.lastMoved }

// NewLegalizer validates cfg, builds the segment grid for d (inserting
// any already placed movable cells) and returns a ready legalizer.
func NewLegalizer(d *design.Design, cfg Config) (*Legalizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := segment.Build(d)
	if err := g.RebuildOccupancy(); err != nil {
		return nil, err
	}
	l := &Legalizer{D: d, G: g, Cfg: cfg, rng: newRNG(cfg.Seed), sc: newScratch(),
		undo: undoLog{latest: make(map[design.CellID]int)}}
	l.sc.region.l = l
	if cfg.Obs != nil {
		l.om = newObsMetrics(cfg.Obs)
	}
	return l, nil
}

// Stats returns a snapshot of activity counters.
func (l *Legalizer) Stats() Stats { return l.sc.stats }

// Phases returns the per-phase wall-clock breakdown accumulated so far.
// All-zero unless Cfg.PhaseTiming is on.
func (l *Legalizer) Phases() PhaseTimes { return l.sc.phases }

// SchedCounters is the per-cell claim-scheduling activity of a parallel
// round driver. The engine has none, so every field reads zero; the type
// stays for callers that read it.
type SchedCounters struct {
	Dispatched int64
	Deferred   int64
	Batches    int64
	Batched    int64
}

// SchedCounters always returns zero counters. It stays for callers that
// read them.
func (l *Legalizer) SchedCounters() SchedCounters { return SchedCounters{} }

// allowRowFn returns the power-rail row filter for master m, or nil when
// alignment is relaxed.
func (l *Legalizer) allowRowFn(m *design.Master) func(int) bool {
	if !l.Cfg.PowerAlign {
		return nil
	}
	d := l.D
	return func(y int) bool { return d.RailCompatible(m, y) }
}

// conAllowRowFn composes the power-rail filter with the constraint set's
// row admission for the armed target. Only called when sc.cons is non-nil;
// without constraints bestInsertionPoint builds the plain rail closure at
// its call site instead, so that closure keeps stack-allocating there (a
// closure returned from here escapes, which would cost the hot path its
// 0 allocs/op contract).
func (l *Legalizer) conAllowRowFn(sc *scratch, m *design.Master, h int) func(int) bool {
	rail := l.allowRowFn(m)
	cons := sc.cons
	cls := sc.conTCls
	if rail == nil {
		return func(y int) bool { return cons.AllowRow(cls, h, y) }
	}
	return func(y int) bool { return rail(y) && cons.AllowRow(cls, h, y) }
}

// armConstraints loads the per-attempt constraint state for target c
// desiring x=tx from Cfg.Constraints: the set itself, the composite
// class, the NarrowX clamp on the target's left edge and the admissible
// horizontal bound term. An empty set is armed as nil, whose methods
// return the neutral values: class 0, no gap, every row, the open clamp
// [MinInt, MaxInt] and a zero bound. Reading Cfg here, once per attempt,
// is what lets a set swapped into Cfg bind the next call.
func (l *Legalizer) armConstraints(sc *scratch, c *design.Cell, tx float64) {
	cons := l.Cfg.Constraints
	if cons.Empty() {
		cons = nil
	}
	sc.cons = cons
	sc.conTCls = cons.Class(l.D.MasterOf(c.ID), c.W, c.H)
	sc.conTLo, sc.conTHi = cons.NarrowX(sc.conTCls, c.W)
	sc.conLBx = cons.Bound(sc.conTCls, c.W, tx)
}

// constraintsOKAt vets a probed-free direct placement at (x, y) against
// the armed constraint set: row admission, the target x-clamp, and —
// when any plugin requires gaps — a neighbor scan over the
// MaxGap-inflated footprint checking the pairwise gap against every
// placed movable neighbor (fixed cells are walls; the engine never
// enforces gaps across them). Conservative: a vetoed probe falls
// through to the MLL pipeline, which enforces the rules exactly.
func (l *Legalizer) constraintsOKAt(sc *scratch, c *design.Cell, x, y int) bool {
	cons := sc.cons
	if !cons.AllowRow(sc.conTCls, c.H, y) || x < sc.conTLo || x > sc.conTHi {
		sc.stats.ConstraintFiltered++
		return false
	}
	mg := cons.MaxGap()
	if mg == 0 {
		return true
	}
	probe := geom.Rect{X: x - mg, Y: y, W: c.W + 2*mg, H: c.H}
	sc.conProbe = l.G.CellsIn(probe, sc.conProbe[:0])
	for _, nid := range sc.conProbe {
		if nid == c.ID {
			continue
		}
		n := l.D.Cell(nid)
		if n.Fixed || !n.Placed {
			continue
		}
		ncls := cons.Class(l.D.MasterOf(nid), n.W, n.H)
		if n.X+n.W <= x {
			if x-(n.X+n.W) < cons.Gap(ncls, sc.conTCls) {
				sc.stats.ConstraintFiltered++
				return false
			}
		} else if n.X >= x+c.W {
			if n.X-(x+c.W) < cons.Gap(sc.conTCls, ncls) {
				sc.stats.ConstraintFiltered++
				return false
			}
		}
		// x-overlapping neighbors on shared rows cannot happen: the
		// caller's FreeAt probe already passed.
	}
	return true
}

// MLL runs Multi-row Local Legalization (§4) for the unplaced cell id
// with desired position (tx, ty) in fractional site units: it extracts
// the local region around the target, enumerates valid insertion points,
// evaluates them, and realizes the best one. It reports whether a legal
// placement was found; on failure the design is unchanged (the attempt
// runs behind a savepoint, so even a panic mid-realization rolls back).
// A non-finite or out-of-range target (validTarget) fails at once.
func (l *Legalizer) MLL(id design.CellID, tx, ty float64) bool {
	if !validTarget(tx, ty) {
		return false
	}
	err := l.edit(id, func() error {
		return l.place(id, tx, ty, l.Cfg.Rx, l.Cfg.Ry, false)
	})
	return err == nil
}

// resetCancel arms the scratch's per-attempt cancellation state.
func (l *Legalizer) resetCancel(sc *scratch) {
	sc.runCtx = l.runCtx
	sc.checkTick = 0
	sc.expired = nil
}

// place is one placement step for the unplaced cell id desiring (tx, ty).
// With direct set it first probes the snapped slot and inserts there when
// it is free. Otherwise it runs MLL (§4–§5) in the window of half-extent
// (rx, ry): it extracts the local region, selects the best insertion
// point and realizes it. A failed direct insert, which only fault
// injection can cause, falls through to MLL. It must run inside an
// attempt, which unwinds it on failure.
func (l *Legalizer) place(id design.CellID, tx, ty float64, rx, ry int, direct bool) error {
	sc := l.sc
	l.resetCancel(sc)
	c := l.D.Cell(id)
	l.armConstraints(sc, c, tx)
	if direct {
		if x, y, ok := l.snap(c, tx, ty); ok && l.G.FreeAt(x, y, c.W, c.H) && l.constraintsOKAt(sc, c, x, y) {
			l.touch(id)
			l.D.Place(id, x, y)
			if err := l.insertGrid(id); err == nil {
				sc.stats.DirectPlacements++
				l.lastMoved = l.lastMoved[:0]
				return nil
			}
			// Grid inserts are all-or-nothing, so only the design mark
			// needs undoing before falling back to MLL.
			l.D.Unplace(id)
		}
	}

	sc.stats.MLLCalls++
	if c.Placed {
		panic("core: MLL target must be unplaced")
	}
	timing := l.timing()
	var t0 time.Time
	if timing {
		t0 = time.Now()
	}
	r := sc.extract(l.G, mllWindow(c, tx, ty, rx, ry))
	if timing {
		t1 := time.Now()
		sc.phases.Extract += t1.Sub(t0)
		t0 = t1
	}

	evalBefore := sc.phases.Evaluate
	var ip *InsertionPoint
	var x int
	if l.Cfg.Solver != nil {
		var ok bool
		ip, x, ok = l.Cfg.Solver.SelectInsertionPoint(r, c, tx, ty, l.allowRowFn(l.D.MasterOf(id)))
		if !ok {
			ip = nil
		}
	} else {
		var ev Evaluation
		ip, ev = l.bestInsertionPoint(r, c, tx, ty)
		x = ev.X
	}
	if timing {
		t1 := time.Now()
		sc.phases.Enumerate += t1.Sub(t0) - (sc.phases.Evaluate - evalBefore)
		t0 = t1
	}
	if ip == nil {
		sc.stats.MLLFailures++
		if sc.expired != nil {
			// Enumeration was cut short by cancellation, not exhausted.
			return sc.expired
		}
		return ErrNoInsertionPoint
	}

	moved, err := r.Realize(ip, x, id)
	if timing {
		sc.phases.Realize += time.Since(t0)
	}
	if err != nil {
		// Should not happen for enumerated insertion points; the
		// attempt unwinds any partial realization state.
		sc.stats.MLLFailures++
		return err
	}
	sc.stats.MLLSuccesses++
	sc.stats.CellsPushed += int64(len(moved))
	l.lastMoved = append(l.lastMoved[:0], moved...)
	return nil
}

// mllWindow is the local-region window of cell c desiring (tx, ty):
// (x_t−rx, y_t−ry, 2rx+w_t, 2ry+h_t).
func mllWindow(c *design.Cell, tx, ty float64, rx, ry int) geom.Rect {
	return geom.Rect{X: int(math.Round(tx)) - rx, Y: int(math.Round(ty)) - ry, W: 2*rx + c.W, H: 2*ry + c.H}
}

// cancelCheck is polled inside the enumeration hot loop (rate-limited to
// one look at the run context per 256 insertion points). It reports
// whether the current cell attempt should be abandoned because the run
// was canceled, and caches the cause in sc.expired.
func (sc *scratch) cancelCheck() bool {
	if sc.expired != nil {
		return true
	}
	if sc.runCtx == nil {
		return false
	}
	sc.checkTick++
	if sc.checkTick&255 != 0 {
		return false
	}
	if sc.runCtx.Err() != nil {
		sc.expired = ErrCanceled
		return true
	}
	return false
}

// widthFits reports whether a cell of width w and height h of master m
// could ever be placed: some rail-compatible bottom row must offer, on
// every spanned row, a segment at least w sites wide. It is a necessary
// condition for placeability, used to fail unplaceable cells fast with
// ErrCellTooWide instead of burning retry rounds.
func (l *Legalizer) widthFits(m *design.Master, w, h int) bool {
	if l.rowMaxSeg == nil {
		l.rowMaxSeg = make([]int, l.D.NumRows())
		for y := range l.rowMaxSeg {
			for _, s := range l.G.RowSegments(y) {
				if n := s.Span.Len(); n > l.rowMaxSeg[y] {
					l.rowMaxSeg[y] = n
				}
			}
		}
	}
	for y := 0; y+h <= l.D.NumRows(); y++ {
		if l.Cfg.PowerAlign && !l.D.RailCompatible(m, y) {
			continue
		}
		ok := true
		for r := y; r < y+h; r++ {
			if l.rowMaxSeg[r] < w {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// bestInsertionPoint finds the minimum-cost insertion point for target
// cell c in region r, returning the best (nil when none exists). The
// returned insertion point is copied into the scratch's retained slot,
// surviving the enumeration that produced it. The default path is the
// best-first lower-bound search (searchBest); Cfg.ExhaustiveSearch
// selects the full enumerate-then-evaluate sweep. Both paths use the
// same enumeration-order-independent tie-break (betterCand), so they
// return the identical candidate.
func (l *Legalizer) bestInsertionPoint(r *Region, c *design.Cell, tx, ty float64) (*InsertionPoint, Evaluation) {
	sc := r.sc
	m := l.D.MasterOf(c.ID)
	allow := l.allowRowFn(m)
	if sc.cons != nil {
		allow = l.conAllowRowFn(sc, m, c.H)
	}
	timing := l.timing()
	var bestEv Evaluation
	found := false
	n := 0
	score := func(ip *InsertionPoint) bool {
		var ev Evaluation
		if timing {
			t0 := time.Now()
			ev = l.evaluate(r, ip, c.W, tx, ty)
			sc.phases.Evaluate += time.Since(t0)
		} else {
			ev = l.evaluate(r, ip, c.W, tx, ty)
		}
		n++
		if ev.OK && (!found || betterCand(ev, ip, bestEv, &sc.bestIP)) {
			found = true
			bestEv = ev
			sc.retainBest(ip)
		}
		return !sc.cancelCheck()
	}
	if l.Cfg.ExhaustiveSearch {
		r.enumerate(c.W, c.H, allow, score)
	} else {
		incumbent := math.Inf(1)
		r.searchBest(c.W, c.H, tx, ty, allow, &incumbent, func(ip *InsertionPoint) bool {
			if !score(ip) {
				return false
			}
			if found && bestEv.Cost < incumbent {
				incumbent = bestEv.Cost
			}
			return true
		})
	}
	sc.stats.InsertionPoints += int64(n)
	if !found {
		return nil, Evaluation{}
	}
	return &sc.bestIP, bestEv
}

// evaluate scores one insertion point with the configured evaluator.
func (l *Legalizer) evaluate(r *Region, ip *InsertionPoint, wt int, tx, ty float64) Evaluation {
	if l.Cfg.ExactEval {
		return r.evaluateExact(ip, wt, tx, ty)
	}
	return r.evaluateApprox(ip, wt, tx, ty)
}

// retainBest copies the (scratch-reused) yielded insertion point into the
// scratch's stable best slot.
func (sc *scratch) retainBest(ip *InsertionPoint) {
	sc.bestIvs = sc.bestIvs[:0]
	for _, iv := range ip.Intervals {
		sc.bestIvs = append(sc.bestIvs, *iv)
	}
	sc.bestPtrs = sc.bestPtrs[:0]
	for i := range sc.bestIvs {
		sc.bestPtrs = append(sc.bestPtrs, &sc.bestIvs[i])
	}
	sc.bestIP = InsertionPoint{BottomRel: ip.BottomRel, Intervals: sc.bestPtrs, Lo: ip.Lo, Hi: ip.Hi}
}

// betterCand is the strict total order on scored candidates: lower cost
// wins, ties break on target x, then bottom row, then the lexicographic
// gap-index sequence. Because the order is total — no two distinct
// candidates compare equal — the winner is independent of enumeration
// order, which is what lets the best-first search and the exhaustive
// scanline sweep return the identical insertion point.
func betterCand(aEv Evaluation, a *InsertionPoint, bEv Evaluation, b *InsertionPoint) bool {
	if aEv.Cost != bEv.Cost {
		return aEv.Cost < bEv.Cost
	}
	if aEv.X != bEv.X {
		return aEv.X < bEv.X
	}
	if a.BottomRel != b.BottomRel {
		return a.BottomRel < b.BottomRel
	}
	for k := range a.Intervals {
		if ga, gb := a.Intervals[k].GapIdx, b.Intervals[k].GapIdx; ga != gb {
			return ga < gb
		}
	}
	return false
}
