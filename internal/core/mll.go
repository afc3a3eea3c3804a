package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"mrlegal/internal/constraint"
	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/obs"
	"mrlegal/internal/sched"
	"mrlegal/internal/segment"
	"mrlegal/internal/verify"
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

	// MaxInsertionPoints caps how many insertion points a single MLL call
	// evaluates; 0 means unlimited. Enumeration is O(|C_W|^h), so a cap
	// bounds the tail on dense multi-row windows. With the best-first
	// search the cap counts *evaluated* candidates, so a capped run may
	// differ from a capped exhaustive run; at the default 0 the two modes
	// are equivalent.
	MaxInsertionPoints int

	// ExhaustiveSearch disables the best-first lower-bound search and
	// evaluates every valid insertion point, as the paper describes and as
	// this implementation did before the search landed. Both modes return
	// an identical best candidate (same cost, position and tie-break); the
	// exhaustive sweep exists as the equivalence oracle and for ablation
	// benchmarks (mrbench -experiment prune).
	ExhaustiveSearch bool

	// EscalateWindow is an implementation extension over the paper: when a
	// cell stays unplaced after several retry rounds, the local-region
	// window grows with the round number until it covers the chip. The
	// paper's Algorithm 1 retries forever with a fixed window, which can
	// live-lock on dense instances where the solution needs compaction
	// beyond one window; escalation makes those terminate. It never
	// triggers on instances the fixed window can solve.
	EscalateWindow bool

	// TallFirst places multi-row cells before single-row cells in
	// Algorithm 1 (within each class, input order). The paper places "in
	// an arbitrary order"; tall-first is the standard choice for dense
	// designs, where rail-parity row bands fragment quickly once
	// single-row cells land. On.
	TallFirst bool

	// Workers is the shard count used when Shards is 0. 0 and 1 both mean
	// the serial loop of Algorithm 1, which is the default; a larger
	// value runs the spatially-sharded driver with that many shards (see
	// Shards). Placements are byte-identical either way.
	Workers int

	// Shards selects the spatially-sharded round driver: the die's
	// x-extent is partitioned into up to Shards contiguous column spans
	// (boundaries at quantiles of the round's claim centers), one worker
	// goroutine exclusively owning each span. Interior cells — those
	// whose claims lie inside one span — legalize concurrently; the
	// remaining seam cells run on a sequential thread in strict round
	// order, with dependency edges ordering every conflicting
	// seam–interior pair, so placements and Stats stay identical to the
	// serial driver at every shard count (docs/PERFORMANCE.md §7). 0 defers to
	// Workers; a resolved count of 1 or less is the serial loop. Ignored
	// with an external Solver. When AuditEvery > 0 the audit cadence is
	// per shard during the interior pass, so audit bookkeeping (not
	// placement legality) can differ from the serial schedule.
	Shards int

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
	// or empty set keeps every pipeline byte-identical to a
	// constraint-free build (golden-gated). Incompatible with an
	// external Solver — NewLegalizer rejects the combination, since
	// solvers bypass the filter-aware enumeration the rules ride on.
	// The set may be swapped between calls on one Legalizer: every entry
	// point re-reads it.
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

	// CellTimeout bounds the wall-clock time spent on a single cell
	// attempt (enumeration is abandoned once exceeded and the cell fails
	// with ErrCellTimeout for that round). 0 disables the per-cell
	// deadline. Note that a non-zero value trades determinism for
	// bounded latency.
	CellTimeout time.Duration

	// Faults, when non-nil, injects deterministic failures at the
	// engine's mutation points for chaos testing (see FaultInjector and
	// internal/faultinject). Nil in production.
	Faults FaultInjector

	// Obs, when non-nil, attaches the observability layer: the metric
	// registry, the per-cell trace ring and any configured sinks (see
	// internal/obs and docs/OBSERVABILITY.md). Nil disables everything at
	// the cost of one pointer compare per instrumentation site; the
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
		Rx:                 30,
		Ry:                 5,
		PowerAlign:         true,
		ExactEval:          false,
		Seed:               1,
		MaxRounds:          64,
		MaxInsertionPoints: 0,
		EscalateWindow:     true,
		TallFirst:          true,
	}
}

// Stats counts legalizer activity, for reporting and benchmarks. All
// fields are pure functions of the input and configuration — never of
// worker timing — so seeded runs produce identical Stats at every worker
// count (determinism tests compare them with ==).
type Stats struct {
	DirectPlacements int // cells placed with no legalization needed
	MLLCalls         int
	MLLSuccesses     int
	MLLFailures      int
	InsertionPoints  int64 // insertion points evaluated

	// Best-first search activity (all zero under ExhaustiveSearch). The
	// counters are region-local — each MLL call's incumbent evolves from
	// its own snapshot only — so they stay worker-count invariant like
	// every other field. CandidatesPruned counts fully-formed insertion
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
// Concurrency contract: the exported API is single-goroutine — exactly
// one goroutine may call into a Legalizer at a time. A sharded Legalize
// run fans the round out to one goroutine per shard plus a seam thread;
// during such a run, gridMu arbitrates design/grid access (planners hold
// the read side while snapshotting a region, committers hold the write
// side) and every counter increment lands in a per-thread scratch shard
// that the owning goroutine merges into stats after the join. No other
// goroutine may touch the design, the grid or the legalizer while a run
// is in flight.
type Legalizer struct {
	D   *design.Design
	G   *segment.Grid
	Cfg Config

	rng    *rng
	stats  Stats
	phases PhaseTimes

	// om holds the resolved metric handles of Cfg.Obs, nil when
	// observability is disabled. Every recording site nil-checks it; see
	// observe.go for the discipline.
	om *obsMetrics

	// lastMoved records the local cells shifted by the most recent
	// successful realization (excluding the target). Reused buffer.
	lastMoved []design.CellID

	// txn is the active transaction, nil outside Begin/Commit windows.
	txn *Txn

	// sc is the scratch of the serial path (single-cell API calls and
	// serial rounds); sharded rounds use shardScrs instead.
	sc *scratch

	// gridMu guards design and grid state during sharded rounds:
	// planners take the read side for the snapshot phase (snap/FreeAt/
	// ExtractRegion), committers take the write side for commits, audits
	// and rollbacks. Serial paths take the (uncontended) read side too,
	// keeping one code path.
	gridMu sync.RWMutex

	// runCtx carries the cancellation context of the current Legalize
	// run. It is set before any planner goroutine starts and cleared
	// after they all join, so planners may read it without gridMu.
	runCtx context.Context

	// rowMaxSeg caches the widest segment length per row (segment spans
	// are static for the life of a grid). Built lazily by widthFits.
	rowMaxSeg []int

	// shardScrs are the per-shard scratch slabs of the sharded round
	// driver (shard.go), reused across rounds. Each slot is touched only
	// by its owning shard worker while a round is in flight.
	shardScrs []*scratch

	// shardCounters accumulates the shard router's activity. It is
	// deterministic for a fixed input and configuration: classification
	// depends only on claim geometry and round order, never on worker
	// timing.
	shardCounters sched.ShardCounters

	// cons is the resolved constraint set of the current configuration,
	// nil when empty so the hot path stays on one pointer compare.
	// consSrc is the Cfg.Constraints value last synced.
	cons    *constraint.Set
	consSrc *constraint.Set

	// conCheck holds the plugins' post-placement checkers in
	// verify.Options.Extra shape, wired into mid-run audits.
	conCheck []func(d *design.Design, add func(verify.Violation) bool)
}

// LastMoved returns the cells pushed aside by the most recent successful
// MLL realization, excluding the target itself. The slice is reused by
// the next call; copy it to retain. Incremental optimizers use it to
// update net-length caches after a move.
func (l *Legalizer) LastMoved() []design.CellID { return l.lastMoved }

// NewLegalizer builds the segment grid for d (inserting any already
// placed movable cells) and returns a ready legalizer.
func NewLegalizer(d *design.Design, cfg Config) (*Legalizer, error) {
	g := segment.Build(d)
	if err := g.RebuildOccupancy(); err != nil {
		return nil, err
	}
	if cfg.Solver != nil && !cfg.Constraints.Empty() {
		return nil, errors.New("core: Config.Constraints cannot be combined with an external Solver (plugins ride the built-in enumeration)")
	}
	l := &Legalizer{D: d, G: g, Cfg: cfg, rng: newRNG(cfg.Seed)}
	l.syncConstraints()
	if cfg.Obs != nil {
		l.om = newObsMetrics(cfg.Obs)
	}
	return l, nil
}

// Stats returns a snapshot of activity counters.
func (l *Legalizer) Stats() Stats { return l.stats }

// Phases returns the per-phase wall-clock breakdown accumulated so far.
// All-zero unless Cfg.PhaseTiming is on.
func (l *Legalizer) Phases() PhaseTimes { return l.phases }

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
// the empty configuration builds the plain rail closure at the call site
// instead, so that closure keeps stack-allocating there (a rail closure
// returned from here must escape, which would cost the hot path its
// ≤ 8 allocs/op contract).
func (l *Legalizer) conAllowRowFn(sc *scratch, m *design.Master, h int) func(int) bool {
	rail := l.allowRowFn(m)
	cons := sc.cons
	cls := sc.conTCls
	if rail == nil {
		return func(y int) bool { return cons.AllowRow(cls, h, y) }
	}
	return func(y int) bool { return rail(y) && cons.AllowRow(cls, h, y) }
}

// syncConstraints resolves Cfg.Constraints into the hot-path fields. Every
// entry point calls it, so a set swapped into Cfg between calls takes
// effect at the next one. Cheap when nothing changed: one pointer compare.
func (l *Legalizer) syncConstraints() {
	src := l.Cfg.Constraints
	if src == l.consSrc {
		return
	}
	l.consSrc = src
	if src.Empty() {
		l.cons, l.conCheck = nil, nil
	} else {
		l.cons = src
		l.conCheck = src.Checkers()
	}
}

// armConstraints loads the per-attempt constraint state for target c
// desiring x=tx: the composite class, the NarrowX clamp on the target's
// left edge and the admissible horizontal bound term. With no
// constraints the fields reset to neutral and every consumer stays on
// its original code path.
func (l *Legalizer) armConstraints(sc *scratch, c *design.Cell, tx float64) {
	sc.cons = l.cons
	if l.cons == nil {
		sc.conTCls = 0
		sc.conTLo, sc.conTHi = math.MinInt, math.MaxInt
		sc.conLBx = 0
		return
	}
	sc.conTCls = l.cons.Class(l.D.MasterOf(c.ID), c.W, c.H)
	sc.conTLo, sc.conTHi = l.cons.NarrowX(sc.conTCls, c.W)
	sc.conLBx = l.cons.Bound(sc.conTCls, c.W, tx)
}

// constraintsOKAt vets a probed-free direct placement at (x, y) against
// the armed constraint set: row admission, the target x-clamp, and —
// when any plugin requires gaps — a neighbor scan over the
// MaxGap-inflated footprint checking the pairwise gap against every
// placed movable neighbor (fixed cells are walls; the engine never
// enforces gaps across them). Conservative: a vetoed probe falls
// through to the MLL pipeline, which enforces the rules exactly.
// Callers hold gridMu's read side.
func (l *Legalizer) constraintsOKAt(sc *scratch, c *design.Cell, x, y int) bool {
	cons := sc.cons
	if cons == nil {
		return true
	}
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
// runs inside a transaction, so even a panic mid-realization rolls back).
func (l *Legalizer) MLL(id design.CellID, tx, ty float64) bool {
	l.syncConstraints()
	err := l.attempt(id, func() error {
		return l.mllAt(id, tx, ty, l.Cfg.Rx, l.Cfg.Ry)
	})
	return err == nil
}

// mllAt plans and realizes an MLL-only placement (no direct-placement
// fast path) on the serial scratch. It must run inside a transaction
// boundary (attempt).
func (l *Legalizer) mllAt(id design.CellID, tx, ty float64, rx, ry int) error {
	sc := l.scratchFor()
	sc.plan = plan{id: id, tx: tx, ty: ty, rx: rx, ry: ry}
	l.resetCancel(sc)
	l.armConstraints(sc, l.D.Cell(id), tx)
	l.gridMu.RLock()
	r := l.extractPlan(sc, id, tx, ty, rx, ry)
	l.gridMu.RUnlock()
	l.selectPlan(sc, r, tx, ty)
	var err error
	if sc.plan.kind == planFailed {
		err = sc.plan.err
	} else {
		err = l.realizePlan(sc)
	}
	l.mergeScratch(sc)
	return err
}

// resetCancel arms the scratch's per-attempt cancellation state.
func (l *Legalizer) resetCancel(sc *scratch) {
	sc.runCtx = l.runCtx
	sc.checkTick = 0
	sc.expired = nil
	if l.Cfg.CellTimeout > 0 {
		sc.cellDeadline = time.Now().Add(l.Cfg.CellTimeout)
	} else {
		sc.cellDeadline = time.Time{}
	}
}

// planCell computes the full placement decision for one cell into
// sc.plan without mutating any design or grid state: the direct
// placement probe, then the MLL plan (extract + enumerate + evaluate).
// Grid reads happen under gridMu's read side, released before the
// region-local enumeration, so shard planners only serialize on the
// snapshot. commitPlan applies the decision.
func (l *Legalizer) planCell(sc *scratch, id design.CellID, tx, ty float64, rx, ry int) {
	sc.plan = plan{id: id, tx: tx, ty: ty, rx: rx, ry: ry}
	l.resetCancel(sc)
	c := l.D.Cell(id)
	l.armConstraints(sc, c, tx)
	l.gridMu.RLock()
	if x, y, ok := l.snap(c, tx, ty); ok && l.G.FreeAt(x, y, c.W, c.H) && l.constraintsOKAt(sc, c, x, y) {
		l.gridMu.RUnlock()
		sc.plan.kind = planDirect
		sc.plan.x, sc.plan.y = x, y
		return
	}
	r := l.extractPlan(sc, id, tx, ty, rx, ry)
	l.gridMu.RUnlock()
	l.selectPlan(sc, r, tx, ty)
}

// extractPlan is the grid-reading half of an MLL plan: it snapshots the
// local region into sc. Callers hold gridMu (either side).
func (l *Legalizer) extractPlan(sc *scratch, id design.CellID, tx, ty float64, rx, ry int) *Region {
	sc.stats.MLLCalls++
	c := l.D.Cell(id)
	if c.Placed {
		panic("core: MLL target must be unplaced")
	}
	var t0 time.Time
	if l.timing() {
		t0 = time.Now()
	}
	xc := int(math.Round(tx))
	yc := int(math.Round(ty))
	win := geom.Rect{
		X: xc - rx,
		Y: yc - ry,
		W: 2*rx + c.W,
		H: 2*ry + c.H,
	}
	r := sc.extract(l.G, win)
	if l.timing() {
		sc.phases.Extract += time.Since(t0)
	}
	return r
}

// selectPlan is the region-local half of an MLL plan: it chooses the
// best insertion point (or records the failure) from the snapshot alone,
// without touching the grid, so it runs outside gridMu.
func (l *Legalizer) selectPlan(sc *scratch, r *Region, tx, ty float64) {
	c := l.D.Cell(sc.plan.id)
	var t0 time.Time
	if l.timing() {
		t0 = time.Now()
	}
	evalBefore := sc.phases.Evaluate
	var ip *InsertionPoint
	var x int
	if l.Cfg.Solver != nil {
		var ok bool
		ip, x, ok = l.Cfg.Solver.SelectInsertionPoint(r, c, tx, ty, l.allowRowFn(l.D.MasterOf(c.ID)))
		if !ok {
			ip = nil
		}
	} else {
		var ev Evaluation
		ip, ev = l.bestInsertionPoint(r, c, tx, ty)
		x = ev.X
		sc.plan.cost = ev.Cost
	}
	if l.timing() {
		sc.phases.Enumerate += time.Since(t0) - (sc.phases.Evaluate - evalBefore)
	}
	if ip == nil {
		sc.stats.MLLFailures++
		sc.plan.kind = planFailed
		if sc.expired != nil {
			// Enumeration was cut short by cancellation, not exhausted.
			sc.plan.err = sc.expired
		} else {
			sc.plan.err = ErrNoInsertionPoint
		}
		return
	}
	sc.plan.kind = planMLL
	sc.plan.ip = ip
	sc.plan.ipX = x
	sc.plan.row = r.AbsRow(ip.BottomRel)
}

// commitPlan applies a computed plan, mutating design and grid. It must
// run inside a transaction boundary (attempt); during sharded rounds
// the committing thread additionally holds gridMu's write side. The direct
// placement retries as an inline MLL when the grid insert fails (fault
// injection is the only such path — the planned slot was probed free).
func (l *Legalizer) commitPlan(sc *scratch) error {
	p := &sc.plan
	switch p.kind {
	case planFailed:
		return p.err
	case planDirect:
		id := p.id
		l.touch(id)
		l.D.Place(id, p.x, p.y)
		if err := l.insertGrid(id); err == nil {
			sc.stats.DirectPlacements++
			l.lastMoved = l.lastMoved[:0]
			return nil
		}
		// Grid inserts are all-or-nothing, so only the design mark needs
		// undoing before falling back to MLL.
		l.D.Unplace(id)
		r := l.extractPlan(sc, id, p.tx, p.ty, p.rx, p.ry)
		l.selectPlan(sc, r, p.tx, p.ty)
		if sc.plan.kind == planFailed {
			return sc.plan.err
		}
		return l.realizePlan(sc)
	case planMLL:
		return l.realizePlan(sc)
	}
	return nil
}

// realizePlan commits a planMLL decision: it re-wires the transaction
// and fault hooks into the snapshot region and realizes the chosen
// insertion point.
func (l *Legalizer) realizePlan(sc *scratch) error {
	p := &sc.plan
	r := &sc.region
	r.onTouch = l.touch
	r.insertFn = l.insertGrid
	r.onRealize = nil
	if l.Cfg.Faults != nil {
		r.onRealize = l.Cfg.Faults.OnRealize
	}
	var t0 time.Time
	if l.timing() {
		t0 = time.Now()
	}
	moved, err := r.Realize(p.ip, p.ipX, p.id)
	if l.timing() {
		sc.phases.Realize += time.Since(t0)
	}
	if err != nil {
		// Should not happen for enumerated insertion points; the
		// transaction boundary unwinds any partial realization state.
		sc.stats.MLLFailures++
		return err
	}
	sc.stats.MLLSuccesses++
	sc.stats.CellsPushed += int64(len(moved))
	l.lastMoved = append(l.lastMoved[:0], moved...)
	return nil
}

// cancelCheck is polled inside the enumeration hot loop (rate-limited to
// one time syscall per 256 insertion points). It reports whether the
// current cell attempt should be abandoned and caches the cause in
// sc.expired.
func (sc *scratch) cancelCheck() bool {
	if sc.expired != nil {
		return true
	}
	if sc.runCtx == nil && sc.cellDeadline.IsZero() {
		return false
	}
	sc.checkTick++
	if sc.checkTick&255 != 0 {
		return false
	}
	if sc.runCtx != nil && sc.runCtx.Err() != nil {
		sc.expired = ErrCanceled
		return true
	}
	if !sc.cellDeadline.IsZero() && time.Now().After(sc.cellDeadline) {
		sc.expired = ErrCellTimeout
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
		if sc.cancelCheck() {
			return false
		}
		return l.Cfg.MaxInsertionPoints == 0 || n < l.Cfg.MaxInsertionPoints
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
// scanline sweep return the identical insertion point (and what keeps
// sharded runs byte-identical at every shard count).
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
