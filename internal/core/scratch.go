package core

import (
	"context"
	"math"
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

// Total returns the summed phase time.
func (p PhaseTimes) Total() time.Duration {
	return p.Extract + p.Enumerate + p.Evaluate + p.Realize
}

// scratch owns every reusable buffer of the MLL pipeline: region
// storage, enumeration slabs, evaluation scratch and realization queues,
// plus the per-attempt cancellation state. A legalizer's scratch also
// holds its Stats and PhaseTimes, counted where the work happens.
type scratch struct {
	region Region

	// --- region extraction ---
	all        []design.CellID // window cells, each once, in Grid.CellsIn's row-major order
	marks      epochSet        // non-local and demoted cells; a new epoch per extract
	candidates []design.CellID // movable cells still local in the fixpoint, by ID
	idBuf      []design.CellID // sortCandidates' second radix buffer
	rowDirty   []bool          // window rows the fixpoint must re-divide
	ids        []design.CellID // local cells, ascending ID; local index = position
	cells      []localCell     // parallel to ids
	multiRow   []int32         // local indices of cells with h > 1
	segs       []LocalSeg      // backing for Region.Segs
	rowIdx     [][]int32       // per-row local indices, sorted by x
	cellPos    []int32         // per-row positions of the local cells, each at its localCell.pos
	xCount     []int32         // counting-sort buckets by x−win.X, for xOrder
	xOrder     []int32         // local indices sorted by (x, id)
	cursor     []int           // computeBounds per-row cursor

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
	wins     []searchWindow // feasible candidate windows, by ascending bottom row
	winLB    []float64      // parallel to wins: each window's lower bound
	winOrder []int32        // indices into wins by (lower bound, bottom row), from valleyOrder
	rowRank  [][]int32      // per-row interval order by (distance from tx, gap); valid where ranked
	ranked   []bool         // per row: rankRow has filled rowRank in this search
	rankKeys []float64      // rankRow's per-interval distances
	mrSide   []int8         // per multi-row cell: side pinned by the partial combo
	mrTouch  []int32        // stack of mrSide entries set on the current DFS path

	// --- constraint plugins (armConstraints resets per attempt) ---
	cons     *constraint.Set // armed set; nil = none, and every method is neutral on nil
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
	moved     []design.CellID // Realize's result: the pushed cells' IDs

	// --- the legalizer's activity counters and phase times ---
	stats  Stats
	phases PhaseTimes

	// --- per-attempt cancellation state (resetCancel arms it) ---
	runCtx    context.Context
	checkTick int
	expired   error
}

// newScratch returns an empty scratch with the target clamp open, as
// armConstraints leaves it without constraints: ExtractRegion's
// standalone regions never arm a target, yet build intervals.
func newScratch() *scratch {
	sc := &scratch{conTLo: math.MinInt, conTHi: math.MaxInt}
	sc.region.sc = sc
	return sc
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
