package sched

import "sort"

// Spatial sharding.
//
// A ShardPlan partitions the die's x-extent into K contiguous column
// spans. A cell whose claim lies entirely inside one span is *interior*
// to that shard: by the paper's locality argument its MLL call touches
// state only inside the claim, so interior cells of different shards
// have geometrically disjoint state — their claims live in disjoint
// column spans — and can be planned with zero claim traffic. Each shard
// worker owns its span outright.
//
// Cells whose claims cross a span boundary are *seam* cells, executed
// in round order by a dedicated sequential seam thread that runs
// concurrently with the shard workers. The only conflicting (=
// overlapping-claim) pairs that straddle threads are seam↔interior
// pairs; BuildShardSchedule precomputes, for every such pair, a
// *dependency edge* that makes the later cell's thread wait until the
// earlier cell's thread has executed past it. Because every thread
// processes its cells in ascending round order and every edge points at
// a strictly earlier round index, the globally earliest unexecuted cell
// is always runnable — the schedule is deadlock-free — and every
// conflicting pair executes in its serial relative order. Disjoint
// pairs commute by the locality argument, so the final placement is
// byte-identical to the serial one, for any K.
//
// An earlier design promoted to the seam every cell whose claim
// overlapped an earlier seam claim. That closure is transitive, and at
// paper-default window sizes the claim-overlap graph percolates: one
// boundary claim snowballed into promoting nearly the whole round
// (measured seam fractions above 0.98 for K ≥ 2). Dependency edges
// order exactly the conflicting pairs instead of reclassifying them, so
// the seam population stays at just the boundary-crossing cells.

// ShardSpan is a half-open column span [Lo, Hi) of die sites.
type ShardSpan struct {
	Lo, Hi int
}

// ShardPlan is an ordered partition of the die x-extent into contiguous
// spans. Spans are non-empty, sorted, and tile [Spans[0].Lo,
// Spans[K-1].Hi) exactly.
type ShardPlan struct {
	Spans []ShardSpan
}

// PlanShards partitions [lo, hi) into at most k spans, placing the
// boundaries at quantiles of the given claim x-centers so each shard
// receives a comparable share of the round's work even when the
// placement is spatially skewed. minWidth is the narrowest span allowed
// (use twice the widest claim so a claim can cross at most one seam per
// side); boundaries that would violate it are dropped, so the returned
// plan may have fewer than k spans.
func PlanShards(lo, hi, k, minWidth int, centers []int) *ShardPlan {
	if hi <= lo || k < 1 {
		return &ShardPlan{Spans: []ShardSpan{{Lo: lo, Hi: hi}}}
	}
	if minWidth < 1 {
		minWidth = 1
	}
	if maxK := (hi - lo) / minWidth; k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	sorted := append([]int(nil), centers...)
	sort.Ints(sorted)
	spans := make([]ShardSpan, 0, k)
	prev := lo
	for j := 1; j < k; j++ {
		b := hi // fall back to "no boundary" when quantiles run out
		if n := len(sorted); n > 0 {
			b = sorted[j*n/k]
		} else {
			b = lo + j*(hi-lo)/k
		}
		if b < prev+minWidth {
			b = prev + minWidth
		}
		if rest := hi - (k-j)*minWidth; b > rest {
			b = rest
		}
		if b <= prev || b >= hi {
			continue
		}
		spans = append(spans, ShardSpan{Lo: prev, Hi: b})
		prev = b
	}
	spans = append(spans, ShardSpan{Lo: prev, Hi: hi})
	return &ShardPlan{Spans: spans}
}

// K returns the number of shards.
func (p *ShardPlan) K() int { return len(p.Spans) }

// ShardOf returns the index of the span containing x (clamped into the
// plan's extent first, so off-die coordinates map to the edge shards).
func (p *ShardPlan) ShardOf(x int) int {
	i := sort.Search(len(p.Spans), func(i int) bool { return x < p.Spans[i].Hi })
	if i == len(p.Spans) {
		i = len(p.Spans) - 1
	}
	return i
}

// SeamShard is the assignment for cells executed by the sequential seam
// thread.
const SeamShard = -1

// ShardCounters records one round's shard routing outcomes. They are
// deterministic for a fixed input and shard count: the schedule depends
// only on claim geometry and round order, never on worker timing.
type ShardCounters struct {
	Interior       int64 // cells owned exclusively by one shard (zero claim traffic)
	Seam           int64 // boundary-crossing cells routed to the seam thread
	SyncEdges      int64 // cross-thread ordering edges over seam↔interior conflicts
	SeamDispatched int64 // seam cells actually executed by the seam thread
	SeamDeferred   int64 // always 0: the seam thread never defers, it only waits
}

// Add accumulates another snapshot into c.
func (c *ShardCounters) Add(o ShardCounters) {
	c.Interior += o.Interior
	c.Seam += o.Seam
	c.SyncEdges += o.SyncEdges
	c.SeamDispatched += o.SeamDispatched
	c.SeamDeferred += o.SeamDeferred
}

// Dependency lookups bucket claims by (x, y) bands so each query scans
// only claims near the candidate instead of the whole round.
const (
	depBandRows  = 16
	depBandSites = 64
)

type depEntry struct {
	idx   int32
	shard int32
	cl    Claim
}

type depBuckets map[uint64][]depEntry

func bandKey(xb, yb int) uint64 {
	return uint64(uint32(xb))<<32 | uint64(uint32(yb))
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// eachBand calls f for every (x-band, y-band) bucket the claim touches.
func eachBand(cl Claim, f func(key uint64)) {
	x0, x1 := floorDiv(cl.X0, depBandSites), floorDiv(cl.X1-1, depBandSites)
	y0, y1 := floorDiv(cl.Y0, depBandRows), floorDiv(cl.Y1-1, depBandRows)
	for xb := x0; xb <= x1; xb++ {
		for yb := y0; yb <= y1; yb++ {
			f(bandKey(xb, yb))
		}
	}
}

func (b depBuckets) add(e depEntry) {
	eachBand(e.cl, func(key uint64) { b[key] = append(b[key], e) })
}

// maxOverlap returns the highest entry index whose claim overlaps cl,
// or -1. Bucket slices grow in index order, so each bucket is scanned
// from the back and abandoned at its first overlap.
func (b depBuckets) maxOverlap(cl Claim) int32 {
	best := int32(-1)
	eachBand(cl, func(key uint64) {
		es := b[key]
		for i := len(es) - 1; i >= 0; i-- {
			if es[i].idx <= best {
				break
			}
			if es[i].cl.Overlaps(cl) {
				best = es[i].idx
				break
			}
		}
	})
	return best
}

// maxOverlapPerShard fills best (one slot per shard, preset to -1) with
// the highest overlapping entry index owned by each shard.
func (b depBuckets) maxOverlapPerShard(cl Claim, best []int32) {
	eachBand(cl, func(key uint64) {
		for _, e := range b[key] {
			if e.idx > best[e.shard] && e.cl.Overlaps(cl) {
				best[e.shard] = e.idx
			}
		}
	})
}

// ShardSchedule is one round's complete execution schedule: the per-cell
// shard assignment plus the cross-thread ordering edges that keep every
// conflicting seam↔interior pair in serial relative order.
type ShardSchedule struct {
	// Shard[i] is the owning shard of round cell i, or SeamShard.
	Shard []int32
	// NeedSeam[i], for an interior cell i, is the highest round index of
	// an earlier seam cell whose claim overlaps i's (-1 if none). Cell
	// i's shard worker must wait until the seam thread has executed past
	// that cell before planning i.
	NeedSeam []int32

	seamOrd   []int32 // per round index: ordinal in seam order, -1 for interior
	needShard []int32 // flattened [seamCount][K] interior dependencies
	k         int
	ctr       ShardCounters
}

// K returns the shard count of the underlying plan.
func (s *ShardSchedule) K() int { return s.k }

// Counters returns the routing snapshot of the built schedule.
func (s *ShardSchedule) Counters() ShardCounters { return s.ctr }

// NeedShard, for a seam cell at the given round index, returns the
// highest round index of an earlier interior cell of the given shard
// whose claim overlaps the seam cell's (-1 if none). The seam thread
// must wait until that shard's worker has executed past it.
func (s *ShardSchedule) NeedShard(round, shard int) int32 {
	o := s.seamOrd[round]
	if o < 0 {
		return -1
	}
	return s.needShard[int(o)*s.k+shard]
}

// BuildShardSchedule classifies the round's claims (given in strict
// round order) against the plan and derives the dependency edges.
// Claims are clamped to the plan's x-extent before every test: the
// off-die part of a claim covers no mutable state, so it can neither
// make a cell a seam cell nor create a conflict.
func BuildShardSchedule(p *ShardPlan, claims []Claim) *ShardSchedule {
	n := len(claims)
	k := p.K()
	s := &ShardSchedule{
		Shard:    make([]int32, n),
		NeedSeam: make([]int32, n),
		seamOrd:  make([]int32, n),
		k:        k,
	}
	lo, hi := p.Spans[0].Lo, p.Spans[k-1].Hi
	seamB := make(depBuckets)
	intB := make(depBuckets)
	best := make([]int32, k)
	for i, cl := range claims {
		s.NeedSeam[i] = -1
		s.seamOrd[i] = -1
		if cl.X0 < lo {
			cl.X0 = lo
		}
		if cl.X1 > hi {
			cl.X1 = hi
		}
		if cl.Empty() {
			// Degenerate after clamping (fully off-die or empty): covers
			// no die state, conflicts with nothing — route to the seam
			// thread with no dependencies.
			s.Shard[i] = SeamShard
			s.seamOrd[i] = int32(len(s.needShard) / k)
			for range best {
				s.needShard = append(s.needShard, -1)
			}
			s.ctr.Seam++
			continue
		}
		s0, s1 := p.ShardOf(cl.X0), p.ShardOf(cl.X1-1)
		if s0 == s1 {
			s.Shard[i] = int32(s0)
			s.ctr.Interior++
			if need := seamB.maxOverlap(cl); need >= 0 {
				s.NeedSeam[i] = need
				s.ctr.SyncEdges++
			}
			intB.add(depEntry{idx: int32(i), shard: int32(s0), cl: cl})
			continue
		}
		s.Shard[i] = SeamShard
		s.seamOrd[i] = int32(len(s.needShard) / k)
		for j := range best {
			best[j] = -1
		}
		intB.maxOverlapPerShard(cl, best)
		for _, b := range best {
			if b >= 0 {
				s.ctr.SyncEdges++
			}
			s.needShard = append(s.needShard, b)
		}
		s.ctr.Seam++
		seamB.add(depEntry{idx: int32(i), shard: int32(SeamShard), cl: cl})
	}
	return s
}
