package core

import (
	"context"
	"time"

	"mrlegal/internal/constraint"
	"mrlegal/internal/design"
)

// PhaseTimes breaks one legalization run's MLL work down by pipeline
// phase. It is collected only when Config.PhaseTiming is on and lives
// outside Stats so the deterministic activity counters stay comparable
// across runs with == (wall-clock durations never are).
type PhaseTimes struct {
	Extract   time.Duration // ExtractRegion (§2.1.3 fixpoint + bounds)
	Enumerate time.Duration // scanline insertion-point enumeration (§5.1.3)
	Evaluate  time.Duration // insertion-point scoring (§5.2)
	Realize   time.Duration // push-propagation commits (§5.3)
}

func (p *PhaseTimes) add(o PhaseTimes) {
	p.Extract += o.Extract
	p.Enumerate += o.Enumerate
	p.Evaluate += o.Evaluate
	p.Realize += o.Realize
}

// Total returns the summed phase time.
func (p PhaseTimes) Total() time.Duration {
	return p.Extract + p.Enumerate + p.Evaluate + p.Realize
}

type planKind uint8

const (
	planNone   planKind = iota
	planDirect          // snapped position is free; commit inserts directly
	planMLL             // insertion point chosen; commit realizes it
	planFailed          // plan-phase taxonomy error; commit just reports it
)

// plan is the outcome of the pure planning phase for one cell: everything
// the commit phase needs to mutate the design, or the error to report.
// The region and insertion point live in the owning scratch.
type plan struct {
	id     design.CellID
	tx, ty float64
	rx, ry int
	kind   planKind
	x, y   int             // planDirect: snapped position
	ip     *InsertionPoint // planMLL: chosen insertion point (scratch-backed)
	ipX    int             // planMLL: target x
	cost   float64         // planMLL: the chosen candidate's evaluated cost
	row    int             // planMLL: absolute bottom row of the chosen point
	err    error           // planFailed: reason
}

// scratch owns every reusable buffer of one MLL pipeline instance:
// region storage, enumeration slabs, evaluation scratch and realization
// queues, plus the per-attempt cancellation state and the stats shard.
//
// Concurrency contract: a scratch belongs to exactly one goroutine at a
// time. The serial driver uses the legalizer's own scratch; the sharded
// driver gives each shard thread its own scratch for the round. Stats
// accumulate in the shard and are merged into Legalizer.stats only by the
// goroutine that owns the legalizer, so the hot path needs no atomics.
type scratch struct {
	region Region

	// --- region extraction ---
	all        []design.CellID        // window cell collection buffer
	nonLocal   map[design.CellID]bool // demoted cells; cleared per extract
	candidates []design.CellID        // movable fully-contained cells, by ID
	ids        []design.CellID        // local cells, ascending ID; local index = position
	cells      []localCell            // parallel to ids
	sortedIDs  int                    // ids[:sortedIDs] is sorted; Realize appends its target past it
	multiRow   []int32                // local indices of cells with h > 1
	segs       []LocalSeg             // backing for Region.Segs
	rowLists   [][]design.CellID      // per-row cell lists backing LocalSeg.Cells
	rowIdx     [][]int32              // per-row local indices, parallel to rowLists
	rowPos     [][]int32              // rowPos[rel][li] = position of local cell li in row rel, -1 when absent
	xKeys      []uint64               // (x−win.X)<<32 | local index, sorted into xOrder
	xOrder     []int32                // local indices sorted by (x, id)
	cursor     []int                  // computeBounds per-row cursor

	// --- enumeration ---
	intervals []Interval   // interval slab; stable once enumeration starts
	rowIvs    [][]Interval // per-row views into the slab
	events    []event
	queues    [][]*Interval // flat hW×hW queue matrix Q[a][s]
	combo     []*Interval
	yieldIP   InsertionPoint // reused per-yield insertion point (Intervals aliases combo)
	bestIvs   []Interval     // interval copies of the retained best insertion point
	bestPtrs  []*Interval
	bestIP    InsertionPoint

	// --- best-first search (searchBest) ---
	winOrder []searchWindow // candidate windows sorted by (y-cost bound, row)
	rowRank  [][]int32      // per-row interval order by (distance from tx, gap)
	mrSide   []int8         // per multi-row cell: side pinned by the partial combo
	mrTouch  []int32        // stack of mrSide entries set on the current DFS path

	// --- constraint plugins (armConstraints resets per attempt) ---
	cons     *constraint.Set // active set; nil = none (byte-identical fast path)
	conTCls  uint8           // composite class of the target cell
	conTLo   int             // NarrowX left-edge clamp for the target (math.MinInt = open)
	conTHi   int             // NarrowX clamp upper end (math.MaxInt = open)
	conLBx   float64         // admissible horizontal bound term for the target
	conPrev  []int32         // computeBounds per-row previous-cell index slab
	conProbe []design.CellID // direct-probe neighbor scan buffer

	// --- evaluation ---
	lpts, rpts []float64
	kL, kR     []int32 // dense clearances by local index; -1 = unreached

	// --- realization ---
	queue     []int32 // push-propagation work queue of local indices
	movedMark []bool  // by local index
	movedList []int32

	// --- per-attempt plan, stats shard, phase timing ---
	plan   plan
	stats  Stats
	phases PhaseTimes

	// --- observability (set only when an observer is attached) ---
	worker int // shard lane of the planning thread, -1 on the serial path

	// --- per-attempt cancellation state (was on Legalizer; moved here so
	// concurrent planners poll independent deadlines) ---
	runCtx       context.Context
	cellDeadline time.Time
	checkTick    int
	expired      error
}

func newScratch() *scratch {
	sc := &scratch{nonLocal: make(map[design.CellID]bool), worker: -1}
	sc.region.sc = sc
	return sc
}

// scratchFor returns the legalizer's serial-path scratch, creating it on
// first use.
func (l *Legalizer) scratchFor() *scratch {
	if l.sc == nil {
		l.sc = newScratch()
	}
	return l.sc
}

// mergeScratch folds the scratch's stats shard and phase times into the
// legalizer totals and clears the shard. Only the goroutine owning the
// legalizer (the serial caller, or the sharded driver after its join)
// calls this.
func (l *Legalizer) mergeScratch(sc *scratch) {
	if l.om != nil {
		l.om.addMerge(&sc.stats, &sc.phases)
	}
	s, d := &sc.stats, &l.stats
	d.DirectPlacements += s.DirectPlacements
	d.MLLCalls += s.MLLCalls
	d.MLLSuccesses += s.MLLSuccesses
	d.MLLFailures += s.MLLFailures
	d.InsertionPoints += s.InsertionPoints
	d.CandidatesPruned += s.CandidatesPruned
	d.SearchNodesCut += s.SearchNodesCut
	d.WindowsPruned += s.WindowsPruned
	d.CellsPushed += s.CellsPushed
	d.RetryRounds += s.RetryRounds
	d.ConstraintFiltered += s.ConstraintFiltered
	sc.stats = Stats{}
	l.phases.add(sc.phases)
	sc.phases = PhaseTimes{}
}

// grow returns s resized to length n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill32 sets every element of s to v.
func fill32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}
