package core

import (
	"errors"
	"math"
	"slices"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/segment"
)

// This file implements the generation-stamped extraction cache: a window
// memo in front of ExtractRegion that makes repeated MLL attempts over an
// unchanged window incremental instead of from-scratch. Three kinds of
// reuse hang off one entry, keyed by the clipped window rectangle:
//
//   - a snapshot of the post-extraction scratch state (local cells, per-row
//     lists, xL/xR bounds), restored by copy instead of re-running the
//     §2.1.3 fixpoint;
//   - a memoized no-insertion-point verdict per target shape, which skips
//     extraction AND search outright — the common case for a hopeless cell
//     retried round after round with its clamped target pinned to the same
//     window;
//   - a carry-forward seed: the best candidate cost of a failed
//     realization, used as the next attempt's admissible incumbent so the
//     best-first search starts tight instead of at +Inf.
//
// Validation is content-based: an entry stores the (id, x, w) signature of
// every cell overlapping the window, in the deterministic row-major
// segment scan order, and a lookup compares it against the live grid. The
// per-segment generation counters (segment.Segment.Generation) are a sound
// O(deps) fast path — equal generations imply identical list content — but
// never the verdict: a shared segment's counter can be bumped by an
// out-of-window mutation whose timing depends on the worker count, while
// the in-window content itself is worker-count invariant (any commit that
// writes inside the window conflicts with this cell's claim and is ordered
// against it by the scheduler). Counting verdicts, not validation paths,
// is what keeps ExtractCacheHits/Misses/Invalidations byte-identical at
// every worker count.
//
// Concurrency: lookups run in extractPlan under gridMu (either side);
// stores run on the commit side — under gridMu's write lock during
// sharded rounds, single-threaded otherwise — and entries are immutable
// once published (a store over a live key publishes a new entry aliasing
// the old immutable slabs). Capacity trims happen only at round boundaries
// (or outside Legalize runs), never mid-round, so eviction timing can
// never make a lookup's verdict depend on worker scheduling.
//
// Shard affinity: during sharded rounds (shard.go) every attempt routes
// through the cache its scratch carries (scratch.cc) — a shard-local
// table owned by exactly one worker goroutine, so interior cells need no
// cross-shard map coordination at all; seam-pass and serial attempts
// (scratch.cc == nil) use the legalizer's shared table. Which table a
// cell consults is a pure function of the round's deterministic shard
// routing, so cache counters stay reproducible per configuration, and
// placements never depend on cache content in the first place (every
// verdict is content-validated), so they stay byte-identical across
// the serial and sharded drivers.
//
// See docs/PERFORMANCE.md §6 for the design notes and the admissibility
// argument for carry-forward seeds.

// defaultExtractCacheCap bounds the retained window memos when
// Config.ExtractCacheCap is unset.
const defaultExtractCacheCap = 64

// depRec pins one grid segment at the generation observed at capture time.
type depRec struct {
	seg *segment.Segment
	gen uint64
}

// contentRec is one cell appearance in a window's content signature.
type contentRec struct {
	id design.CellID
	x  int32
	w  int32
}

// memoRow is the per-row header of a snapshot: the chosen local segment
// and the row's slice of the flat local-index list.
type memoRow struct {
	row   int
	valid bool
	span  geom.Span
	off   int32
	cnt   int32
}

// memoOutcome records one prior search outcome against the entry's
// content, keyed by target shape. The key includes the master (not just
// the dimensions) because the power-rail row filter depends on it. The
// constraint plugins need no extra key component: a target's composite
// class is a pure function of (master, w, h) under a fixed constraint set,
// and changing the set drops every cache table (syncConstraints), so a
// verdict can never be replayed under different rules.
type memoOutcome struct {
	m    *design.Master
	w, h int

	// noIP: the uncapped, uncanceled search proved no OK candidate exists
	// for this shape. The verdict is target-position independent: the
	// enumeration's yield set depends only on (wt, ht, allowRow), the
	// approximate evaluator always reports OK, and the exact evaluator
	// rejects only via bothSides, which depends on the candidate and wt.
	noIP bool

	// A failed realization's best candidate: cost at target (seedTx,
	// seedTy). Costs are 1-Lipschitz in tx (the target position appears
	// once in lpts and once in rpts), so cost + |tx'−seedTx| is a valid
	// incumbent for a later attempt at tx' with the same ty.
	hasSeed                  bool
	seedTx, seedTy, seedCost float64

	// seedRow is the absolute bottom row of the seed candidate's window.
	// When the tuner is active a later search over the same content opens
	// this window first (placement-neutral — see searchBest).
	seedRow int
}

// extractMemo is one immutable cache entry. The slabs are never mutated
// after publication; restores copy out of them and republications alias
// them.
type extractMemo struct {
	win     geom.Rect // clipped window, the cache key
	deps    []depRec
	rowCnt  []int32      // per window row: number of content records
	content []contentRec // row-major, per-row in segment scan order

	// Snapshot of the post-extraction scratch state. Absent (hasSnap
	// false) for entries stored after a failed realization, whose push
	// passes left the scratch's cell positions dirty.
	hasSnap  bool
	ids      []design.CellID
	cells    []localCell
	multiRow []int32
	xOrder   []int32
	rows     []memoRow
	idxFlat  []int32

	outcomes []memoOutcome
}

// extractCache is the legalizer-owned entry table with FIFO eviction by
// first-insertion order.
type extractCache struct {
	entries map[geom.Rect]*extractMemo
	order   []geom.Rect

	// seen implements the two-touch admission policy (cacheAdmit): window
	// keys that failed once. Only the second failure at a key builds a
	// snapshot entry, so never-revisited windows — the common case, retry
	// jitter moves the target every round — cost one set insert instead of
	// a full content capture and snapshot clone.
	seen map[geom.Rect]struct{}
}

// cacheEnabled reports whether this configuration can use the cache. An
// external solver may carry mutable state, and a capped search proves
// nothing about the uncapped candidate set, so both disable it.
func (l *Legalizer) cacheEnabled() bool {
	return l.Cfg.ExtractCache && l.Cfg.Solver == nil && l.Cfg.MaxInsertionPoints == 0
}

func (l *Legalizer) cacheCap() int {
	if l.Cfg.ExtractCacheCap > 0 {
		return l.Cfg.ExtractCacheCap
	}
	return defaultExtractCacheCap
}

// clipWin is scratch.extract's window normalization, reused as the
// canonical cache key: rows outside the grid and x-extent beyond the die
// span contribute nothing to extraction, so windows differing only in
// off-die area extract identically and share one entry. The x clip is what
// makes late escalated retries cacheable at all — once a hopeless cell's
// window covers the die, every further round (and every same-shape cell in
// the same state) maps to the same key no matter how the jittered target
// moved.
func clipWin(g *segment.Grid, win geom.Rect) geom.Rect {
	yLo := max(win.Y, 0)
	yHi := min(win.Y2(), g.Design().NumRows())
	sp := g.XSpan()
	xLo := max(win.X, sp.Lo)
	xHi := min(win.X2(), sp.Hi)
	return geom.Rect{X: xLo, Y: yLo, W: xHi - xLo, H: yHi - yLo}
}

func newExtractCache() *extractCache {
	return &extractCache{entries: make(map[geom.Rect]*extractMemo)}
}

// capSpan is the x-span the cache's capture and validation scans cover for
// a window: the window's own span, inflated by the active constraint set's
// maximum pairwise gap. Extraction collects from the same inflated span
// (scratch.extract's colWin), so cells just outside the window that can
// still exert a constraint gap on in-window geometry must be part of the
// dependency set and content signature. The cache key itself stays
// un-inflated (clipWin); a constraint-set change drops every table
// wholesale (syncConstraints), so entries never mix inflation radii.
func (l *Legalizer) capSpan(win geom.Rect) geom.Span {
	sp := geom.Span{Lo: win.X, Hi: win.X2()}
	if l.cons != nil {
		if mg := l.cons.MaxGap(); mg > 0 {
			sp.Lo -= mg
			sp.Hi += mg
		}
	}
	return sp
}

// ccFor resolves the cache an attempt reads: the scratch's shard-local
// table during sharded rounds, the legalizer's shared table otherwise.
// May return nil (shared table not yet created) — get tolerates it.
func (l *Legalizer) ccFor(sc *scratch) *extractCache {
	if sc.cc != nil {
		return sc.cc
	}
	return l.cache
}

// ccEnsure is ccFor for the store side, creating the shared table on
// first use (shard-local tables are pre-created by ensureShardSlots).
func (l *Legalizer) ccEnsure(sc *scratch) *extractCache {
	if sc.cc != nil {
		return sc.cc
	}
	if l.cache == nil {
		l.cache = newExtractCache()
	}
	return l.cache
}

func (cc *extractCache) get(key geom.Rect) *extractMemo {
	if cc == nil {
		return nil
	}
	return cc.entries[key]
}

// cachePut publishes an entry into the attempt's cache. Callers on the
// commit side only (see the file comment). Outside Legalize runs the
// capacity trim happens here; during runs it is deferred to the next
// round boundary.
func (l *Legalizer) cachePut(sc *scratch, key geom.Rect, m *extractMemo) {
	cc := l.ccEnsure(sc)
	if _, ok := cc.entries[key]; !ok {
		cc.order = append(cc.order, key)
	}
	cc.entries[key] = m
	if l.runCtx == nil {
		cc.trim(l.cacheCap())
	}
}

// cacheTrim trims every cache table — the shared one and any shard-local
// ones — down to capacity. Only called at round boundaries (placeRound
// start) and from out-of-run cachePuts, so no planner can observe a
// mid-round eviction.
func (l *Legalizer) cacheTrim() {
	capN := l.cacheCap()
	l.cache.trim(capN)
	for _, cc := range l.shardCaches {
		cc.trim(capN)
	}
}

// cacheInvalidateRects drops every entry — from the shared table and
// every shard table — whose window overlaps any of the given rects, and
// returns the number dropped. The session engine calls it after a
// committed delta batch with the batch's dirty region (session.go):
// content signatures already make a stale entry self-invalidate on
// lookup, so this proactive pass is about hit-rate accounting and memory,
// never correctness — which is also why missing a rect could never
// corrupt a placement.
func (l *Legalizer) cacheInvalidateRects(rects []geom.Rect) int {
	if len(rects) == 0 {
		return 0
	}
	n := l.cache.invalidateRects(rects)
	for _, cc := range l.shardCaches {
		n += cc.invalidateRects(rects)
	}
	return n
}

// invalidateRects removes entries whose windows overlap any rect,
// preserving the FIFO eviction order of the survivors.
func (cc *extractCache) invalidateRects(rects []geom.Rect) int {
	if cc == nil || len(cc.entries) == 0 {
		return 0
	}
	n := 0
	for key := range cc.entries {
		for _, r := range rects {
			if key.Overlaps(r) {
				delete(cc.entries, key)
				n++
				break
			}
		}
	}
	if n > 0 {
		keep := cc.order[:0]
		for _, k := range cc.order {
			if _, ok := cc.entries[k]; ok {
				keep = append(keep, k)
			}
		}
		cc.order = keep
	}
	return n
}

// trim evicts oldest-first down to capacity.
func (cc *extractCache) trim(capN int) {
	if cc == nil {
		return
	}
	for len(cc.entries) > capN && len(cc.order) > 0 {
		delete(cc.entries, cc.order[0])
		cc.order = cc.order[1:]
	}
	if len(cc.order) == 0 {
		cc.order = nil // release the consumed backing array
	}
	// The admission set is bounded the same way, but by wholesale reset:
	// per-key eviction order isn't worth tracking for what is only a
	// doorkeeper. A reset costs at most one extra miss per recurring key.
	if len(cc.seen) > 8*capN {
		clear(cc.seen)
	}
}

// cacheAdmit reports whether a new no-insertion-point entry for key should
// be built, registering the key on first sight. Runs on the commit side in
// deterministic order — like eviction, admission can never make a lookup
// verdict depend on worker scheduling.
func (l *Legalizer) cacheAdmit(sc *scratch, key geom.Rect) bool {
	cc := l.ccEnsure(sc)
	if cc.seen == nil {
		cc.seen = make(map[geom.Rect]struct{})
	}
	if _, ok := cc.seen[key]; ok {
		return true
	}
	cc.seen[key] = struct{}{}
	return false
}

// captureDeps records the generation of every segment overlapping the
// clipped window. Callers hold gridMu (either side).
func (l *Legalizer) captureDeps(win geom.Rect, deps []depRec) []depRec {
	deps = deps[:0]
	span := l.capSpan(win)
	for y := win.Y; y < win.Y2(); y++ {
		for _, s := range l.G.RowSegments(y) {
			if s.Span.Overlaps(span) {
				deps = append(deps, depRec{seg: s, gen: s.Generation()})
			}
		}
	}
	return deps
}

// captureContent records the window content signature: per-row counts and
// the (id, x, w) of every cell overlapping the window, in the same
// deterministic scan order verifyMemo compares in. Callers hold gridMu.
func (l *Legalizer) captureContent(win geom.Rect, rowCnt []int32, recs []contentRec) ([]int32, []contentRec) {
	rowCnt = rowCnt[:0]
	recs = recs[:0]
	span := l.capSpan(win)
	for y := win.Y; y < win.Y2(); y++ {
		n := 0
		for _, s := range l.G.RowSegments(y) {
			if !s.Span.Overlaps(span) {
				continue
			}
			for _, id := range l.G.CellsOverlapping(s, span) {
				c := l.D.Cell(id)
				recs = append(recs, contentRec{id: id, x: int32(c.X), w: int32(c.W)})
				n++
			}
		}
		rowCnt = append(rowCnt, int32(n))
	}
	return rowCnt, recs
}

// verifyMemo reports whether the live window content still matches the
// entry's signature. Callers hold gridMu (either side). The generation
// comparison is a sound shortcut only — see the file comment for why the
// verdict must be content-based.
func (l *Legalizer) verifyMemo(m *extractMemo) bool {
	fresh := true
	for i := range m.deps {
		if m.deps[i].seg.Generation() != m.deps[i].gen {
			fresh = false
			break
		}
	}
	if fresh {
		return true
	}
	win := m.win
	span := l.capSpan(win)
	ci := 0
	for rel := 0; rel < win.H; rel++ {
		y := win.Y + rel
		want := int(m.rowCnt[rel])
		n := 0
		for _, s := range l.G.RowSegments(y) {
			if !s.Span.Overlaps(span) {
				continue
			}
			for _, id := range l.G.CellsOverlapping(s, span) {
				if n >= want {
					return false
				}
				c := l.D.Cell(id)
				rec := m.content[ci+n]
				if rec.id != id || rec.x != int32(c.X) || rec.w != int32(c.W) {
					return false
				}
				n++
			}
		}
		if n != want {
			return false
		}
		ci += want
	}
	return true
}

// cachedExtract is scratch.extract with the window memo in front: a valid
// hit restores the snapshot (or short-circuits a memoized
// no-insertion-point verdict); a miss or stale entry extracts fresh. No
// signature is captured here — the lookup must stay overhead-free for the
// (common) attempts that go on to succeed; capture happens only when a
// failed attempt actually stores, after its rollback (cacheFlush).
// Callers hold gridMu (either side).
func (l *Legalizer) cachedExtract(sc *scratch, c *design.Cell, win geom.Rect, tx, ty float64) *Region {
	sc.memo = nil
	sc.memoKeyOK = false
	sc.memoNoIP = false
	sc.seedOK = false
	sc.storeKind = storeNone
	if !l.cacheEnabled() {
		return sc.extract(l.G, win)
	}
	key := clipWin(l.G, win)
	if key.Empty() {
		return sc.extract(l.G, win)
	}
	sc.memoKey = key
	sc.memoKeyOK = true
	if m := l.ccFor(sc).get(key); m != nil {
		if l.verifyMemo(m) {
			sc.stats.ExtractCacheHits++
			sc.memo = m
			mst := l.D.MasterOf(c.ID)
			for i := range m.outcomes {
				o := &m.outcomes[i]
				if o.m != mst || o.w != c.W || o.h != c.H {
					continue
				}
				if o.noIP {
					sc.memoNoIP = true
				}
				if o.hasSeed && o.seedTy == ty {
					sc.seedOK = true
					sc.seedCost = o.seedCost + math.Abs(tx-o.seedTx)
					if l.tuner != nil {
						// Guided ordering only when the tuner is on, so an
						// off run's search-activity counters stay
						// byte-identical to the pre-guidance goldens.
						sc.tunePromote = int32(o.seedRow)
					}
				}
			}
			if sc.memoNoIP {
				// The failure verdict is target-position independent and
				// selectPlan fails before reading the region, so even the
				// snapshot restore is skipped.
				r := &sc.region
				*r = Region{D: l.D, G: l.G, Win: key, sc: sc}
				return r
			}
			if m.hasSnap {
				return l.restoreFromMemo(sc, m)
			}
			// Bounds-only entry (stored after a failed realization): the
			// seed survives but the region must be re-extracted.
			return sc.extract(l.G, win)
		}
		sc.stats.ExtractCacheInvalidations++
	} else {
		sc.stats.ExtractCacheMisses++
	}
	return sc.extract(l.G, win)
}

// restoreFromMemo rebuilds the post-extraction scratch state from a
// snapshot, byte-identical to what extract would have produced against the
// same window content (FuzzCachedExtractionMatchesFresh pins this). The
// entry's slabs are copied, never aliased: realization mutates the
// scratch's cell positions in place.
func (l *Legalizer) restoreFromMemo(sc *scratch, m *extractMemo) *Region {
	r := &sc.region
	*r = Region{D: l.D, G: l.G, Win: m.win, sc: sc}
	n := len(m.ids)
	sc.ids = append(sc.ids[:0], m.ids...)
	sc.cells = append(sc.cells[:0], m.cells...)
	sc.multiRow = append(sc.multiRow[:0], m.multiRow...)
	sc.sortedIDs = n
	sc.xOrder = grow(sc.xOrder, n)
	copy(sc.xOrder, m.xOrder)
	h := len(m.rows)
	sc.segs = grow(sc.segs, h)
	r.Segs = sc.segs
	sc.rowLists = growOuter(sc.rowLists, h)
	sc.rowIdx = growOuter(sc.rowIdx, h)
	sc.rowPos = growOuter(sc.rowPos, h)
	for rel := range m.rows {
		mr := &m.rows[rel]
		idxs := append(sc.rowIdx[rel][:0], m.idxFlat[mr.off:mr.off+mr.cnt]...)
		// Keep extract's headroom invariants: one spare slot so the
		// realization's temporary target insert never reallocates.
		idxs = slices.Grow(idxs, 1)
		lst := slices.Grow(sc.rowLists[rel][:0], len(idxs)+1)
		for _, li := range idxs {
			lst = append(lst, sc.ids[li])
		}
		sc.rowIdx[rel], sc.rowLists[rel] = idxs, lst
		r.Segs[rel] = LocalSeg{Row: mr.row, Valid: mr.valid, Span: mr.span, Cells: lst}
		pos := grow(sc.rowPos[rel], n)
		fill32(pos, -1)
		for p, li := range idxs {
			pos[li] = int32(p)
		}
		sc.rowPos[rel] = pos
	}
	return r
}

// snapshotScratch copies the pristine post-extraction scratch state into
// fresh entry slabs. Only called for clean no-insertion-point failures,
// where no push pass has dirtied the scratch's cell positions.
func snapshotScratch(sc *scratch, m *extractMemo) {
	r := &sc.region
	m.hasSnap = true
	m.ids = slices.Clone(sc.ids)
	m.cells = slices.Clone(sc.cells)
	m.multiRow = slices.Clone(sc.multiRow)
	m.xOrder = slices.Clone(sc.xOrder)
	m.rows = make([]memoRow, len(r.Segs))
	for rel := range r.Segs {
		ls := &r.Segs[rel]
		idxs := sc.rowIdx[rel]
		m.rows[rel] = memoRow{
			row: ls.Row, valid: ls.Valid, span: ls.Span,
			off: int32(len(m.idxFlat)), cnt: int32(len(idxs)),
		}
		m.idxFlat = append(m.idxFlat, idxs...)
	}
}

// storeKind values: what a failed attempt wants to publish once its
// rollback has restored plan-time state.
const (
	storeNone uint8 = iota
	storeNoIP       // clean search failure: snapshot + no-insertion-point verdict
	storeSeed       // failed realization: bounds-only carry-forward seed
)

// cacheStore marks this attempt's failure knowledge for publication: a
// full snapshot entry with a no-insertion-point verdict for a clean search
// failure, or a bounds-only seed entry for a failed realization.
// Successful attempts store nothing — the commit just changed the window's
// content. Called inside the failing attempt, where a failed realization
// may have left the design and grid dirty — so nothing is captured here;
// the scratch is parked on the legalizer and attempt calls cacheFlush
// after its rollback has restored exactly the plan-time window content.
func (l *Legalizer) cacheStore(sc *scratch, err error) {
	if err == nil || !sc.memoKeyOK || !l.cacheEnabled() {
		return
	}
	p := &sc.plan
	switch {
	case p.kind == planFailed && errors.Is(err, ErrNoInsertionPoint) &&
		sc.expired == nil && !sc.cutTruncated && !sc.memoNoIP && !sc.seedOK:
		// A sweep truncated by the learned cutoff proves nothing about the
		// windows it never entered, so its failure must not be memoized as
		// a content-wide no-insertion-point verdict.
		sc.storeKind = storeNoIP
	case p.kind == planMLL:
		sc.storeKind = storeSeed
	default:
		return
	}
	l.pendingSc = sc
}

// cacheFlush publishes the entry a failed attempt marked via cacheStore.
// It runs on the commit side (attempt's rollback path: under gridMu's
// write lock during sharded rounds, single-threaded otherwise), after the
// transaction rollback restored the window to its plan-time content, so
// the dependency generations and the content signature are captured here —
// only for attempts that actually store, never on the per-lookup path. For
// a clean no-insertion-point failure the scratch's post-extraction state is
// still pristine (the plan failed before any mutation) and is snapshotted
// wholesale.
func (l *Legalizer) cacheFlush(sc *scratch) {
	kind := sc.storeKind
	sc.storeKind = storeNone
	if kind == storeNone {
		return
	}
	p := &sc.plan
	c := l.D.Cell(p.id)
	mst := l.D.MasterOf(p.id)
	var m *extractMemo
	if sc.memo != nil {
		// Republish: alias the immutable slabs, copy-on-write the outcome
		// list. The entry's signature was validated by this attempt's
		// lookup and the rollback restored that content, so only the
		// generation fast path needs refreshing.
		cp := *sc.memo
		cp.outcomes = slices.Clone(sc.memo.outcomes)
		sc.depSegs = l.captureDeps(cp.win, sc.depSegs)
		cp.deps = slices.Clone(sc.depSegs)
		m = &cp
	} else {
		// Two-touch admission for fresh no-insertion-point entries: defer
		// the capture/snapshot cost until a key proves it recurs. Seed
		// entries bypass the doorkeeper — realization failures are rare and
		// their bounds-only entries skip the snapshot clone anyway.
		if kind == storeNoIP && !l.cacheAdmit(sc, sc.memoKey) {
			return
		}
		sc.depSegs = l.captureDeps(sc.memoKey, sc.depSegs)
		sc.ctRows, sc.ctRecs = l.captureContent(sc.memoKey, sc.ctRows, sc.ctRecs)
		m = &extractMemo{
			win:     sc.memoKey,
			deps:    slices.Clone(sc.depSegs),
			rowCnt:  slices.Clone(sc.ctRows),
			content: slices.Clone(sc.ctRecs),
		}
		if kind == storeNoIP {
			snapshotScratch(sc, m)
		}
	}
	oi := -1
	for i := range m.outcomes {
		o := &m.outcomes[i]
		if o.m == mst && o.w == c.W && o.h == c.H {
			oi = i
			break
		}
	}
	if oi < 0 {
		m.outcomes = append(m.outcomes, memoOutcome{m: mst, w: c.W, h: c.H})
		oi = len(m.outcomes) - 1
	}
	o := &m.outcomes[oi]
	if kind == storeNoIP {
		o.noIP = true
	} else {
		o.hasSeed = true
		o.seedTx, o.seedTy, o.seedCost = p.tx, p.ty, p.cost
		o.seedRow = p.row
	}
	l.cachePut(sc, m.win, m)
}
