// Package gp is a quadratic global placer: the substrate that produces the
// "global placement solution" the legalizer consumes (§2: "It is assumed
// that a global placement solution has good distribution of cells").
//
// The paper used GP output from a top-3 winner of the ISPD-2015 contest;
// this package is our from-scratch equivalent. It follows the classic
// analytical recipe:
//
//   - Bound2Bound (B2B) net model [Spindler et al.] linearizing HPWL into
//     pairwise springs re-weighted from the current positions;
//   - separable x/y solves with Jacobi-preconditioned conjugate gradient;
//   - look-ahead spreading by per-band histogram equalization (a
//     simplified FastPlace/Kraftwerk cell shifting) that feeds anchor
//     pseudo-nets with growing weight until bin overflow subsides.
//
// The result is an overlapping, unaligned placement with good locality and
// bounded density — exactly the input profile legalization expects.
package gp

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"mrlegal/internal/abacus"
	"mrlegal/internal/design"
	"mrlegal/internal/netlist"
)

// Config tunes the placer.
type Config struct {
	Seed int64 // seeds the random start and the rough-legalization jitter

	// SkipRough disables the rough-legalization postpass. Contest-grade
	// global placers hand off nearly legal placements (that is what makes
	// the sub-site average displacements of the paper's Table 1
	// possible); the postpass emulates that: it snaps each cell near a
	// row, relaxes per-row overlap with the Abacus cluster placer, and
	// re-adds a little sub-site jitter so the output remains unaligned
	// and overlapping like a real GP handoff.
	SkipRough bool
}

// The placer's fixed settings.
const (
	maxIters      = 24   // outer B2B/spreading iterations
	binW          = 8    // spreading bin width in sites
	binH          = 2    // spreading bin height in rows
	targetUtil    = 0.9  // stop when peak bin utilization ≤ targetUtil
	baseAnchorW   = 0.01 // base anchor weight, grown linearly per iteration
	spreadDamping = 0.7  // spreading blend factor in (0,1]
	cgTol         = 1e-5 // relative CG tolerance
	cgMaxIter     = 300  // CG iteration cap
)

// Stats reports the outcome of a placement run.
type Stats struct {
	Iters        int
	HPWL         float64 // final HPWL in database units
	PeakUtil     float64 // final peak bin utilization
	MovableCells int
}

// Place computes a global placement for every movable cell of d and
// writes it to the cells' GX/GY fields (fractional site units, cell
// lower-left). Fixed placed cells act as fixed pins.
//
// Each outer iteration solves the x system on a goroutine it starts and
// the y system on the calling goroutine, and waits for both before it
// goes on, so no goroutine outlives Place. The two solves share only the
// nets' pin ranges, which neither writes, and the result is the same bit
// for bit as solving the axes one after the other.
func Place(d *design.Design, nl *netlist.Netlist, cfg Config) Stats {
	rng := rand.New(rand.NewSource(cfg.Seed))
	bounds := d.Bounds()
	if bounds.Empty() || len(d.Cells) == 0 {
		return Stats{}
	}

	// Movable index mapping.
	idx := make([]int, len(d.Cells)) // cell → var or -1
	var movable []design.CellID
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			idx[i] = -1
			continue
		}
		idx[i] = len(movable)
		movable = append(movable, c.ID)
	}
	n := len(movable)
	if n == 0 {
		return Stats{}
	}

	// Positions are cell centers during placement.
	x := make([]float64, n)
	y := make([]float64, n)
	for vi, id := range movable {
		c := d.Cell(id)
		x[vi] = float64(bounds.X) + rng.Float64()*float64(bounds.W-c.W) + float64(c.W)/2
		y[vi] = float64(bounds.Y) + rng.Float64()*float64(bounds.H-c.H) + float64(c.H)/2
	}
	anchorX := append([]float64(nil), x...)
	anchorY := append([]float64(nil), y...)
	ax, ay := newAxes(d, nl, idx, n)

	st := Stats{MovableCells: n}
	for iter := 1; iter <= maxIters; iter++ {
		st.Iters = iter
		aw := baseAnchorW * float64(iter)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ax.solve(x, anchorX, aw)
		}()
		ay.solve(y, anchorY, aw)
		wg.Wait()
		clampCenters(d, movable, x, y)

		peak := spread(d, movable, x, y, anchorX, anchorY)
		st.PeakUtil = peak
		if peak <= targetUtil && iter >= 4 {
			break
		}
	}
	clampCenters(d, movable, x, y)
	if !cfg.SkipRough {
		roughLegalize(d, movable, x, y, cfg)
		clampCenters(d, movable, x, y)
	}

	// Commit lower-left positions.
	for vi, id := range movable {
		c := d.Cell(id)
		c.GX = x[vi] - float64(c.W)/2
		c.GY = y[vi] - float64(c.H)/2
	}
	st.HPWL = nl.HPWL(d)
	return st
}

// roughLegalize nudges the placement to near-legality: cell bottoms snap
// to their nearest row, per-row overlap is relaxed by minimal quadratic
// movement (abacus.PlaceRow), and a deterministic sub-site jitter keeps
// the handoff unaligned. Multi-row cells participate through their bottom
// row; residual cross-row overlap is left for the legalizer, as with a
// real global placement.
func roughLegalize(d *design.Design, movable []design.CellID, x, y []float64, cfg Config) {
	bb := d.Bounds()
	nRows := bb.H
	bottomOf := make([]int, len(movable))
	rowWidth := make([]float64, nRows)
	rows := make(map[int][]int) // bottom row → variable indices
	for vi, id := range movable {
		c := d.Cell(id)
		bottom := int(math.Round(y[vi] - float64(c.H)/2))
		if bottom < bb.Y {
			bottom = bb.Y
		}
		if bottom > bb.Y2()-c.H {
			bottom = bb.Y2() - c.H
		}
		bottomOf[vi] = bottom
		rowWidth[bottom-bb.Y] += float64(c.W)
	}
	// Balance overfull rows: spill the widest-x cells of an overfull row
	// to whichever adjacent row has more slack. A few passes suffice for
	// the densities in the roster; residual overflow is the legalizer's
	// job.
	capRow := float64(bb.W) * 0.97
	for pass := 0; pass < 2*nRows; pass++ {
		moved := false
		for r := 0; r < nRows; r++ {
			if rowWidth[r] <= capRow {
				continue
			}
			// Cells with this bottom row, rightmost first.
			var vis []int
			for vi := range movable {
				if bottomOf[vi]-bb.Y == r {
					vis = append(vis, vi)
				}
			}
			sort.Slice(vis, func(i, j int) bool { return x[vis[i]] > x[vis[j]] })
			for _, vi := range vis {
				if rowWidth[r] <= capRow {
					break
				}
				c := d.Cell(movable[vi])
				best, bestSlack := -1, 0.0
				for _, nr := range []int{r - 1, r + 1} {
					if nr < 0 || nr+c.H > nRows {
						continue
					}
					if slack := capRow - rowWidth[nr]; slack > bestSlack {
						bestSlack = slack
						best = nr
					}
				}
				if best < 0 {
					continue
				}
				rowWidth[r] -= float64(c.W)
				rowWidth[best] += float64(c.W)
				bottomOf[vi] = best + bb.Y
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	for vi, id := range movable {
		c := d.Cell(id)
		bottom := bottomOf[vi]
		y[vi] = float64(bottom) + float64(c.H)/2
		rows[bottom] = append(rows[bottom], vi)
	}
	for _, vis := range rows {
		sort.Slice(vis, func(i, j int) bool {
			if x[vis[i]] != x[vis[j]] {
				return x[vis[i]] < x[vis[j]]
			}
			return movable[vis[i]] < movable[vis[j]]
		})
		cells := make([]abacus.RowCell, len(vis))
		var total float64
		for i, vi := range vis {
			c := d.Cell(movable[vi])
			cells[i] = abacus.RowCell{
				Desired: x[vi] - float64(c.W)/2,
				Width:   float64(c.W),
				Weight:  float64(c.W * c.H),
			}
			total += cells[i].Width
		}
		lo, hi := float64(bb.X), float64(bb.X2())
		if total > hi-lo {
			hi = lo + total // overfull row: let it spill, the legalizer resolves it
		}
		if xs, ok := abacus.PlaceRow(cells, lo, hi); ok {
			for i, vi := range vis {
				c := d.Cell(movable[vi])
				x[vi] = xs[i] + float64(c.W)/2
			}
		}
	}
	// Deterministic sub-site jitter: the handoff stays "unaligned and
	// overlapping" (§6) without inflating displacement.
	s := uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0x1234567
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11)/float64(1<<53) - 0.5
	}
	for vi := range movable {
		x[vi] += next() * 0.8 // ±0.4 site
		y[vi] += next() * 0.3 // ±0.15 row
	}
}

// axis is one coordinate's half of the quadratic solve: its pin table,
// built once per Place, and one system whose storage and CG vectors every
// outer iteration reuses. An axis reads and writes only its own
// coordinates, so the x and y axes share no mutable data.
type axis struct {
	pins   []axisPin // the pins of every net with two pins or more, net by net
	netEnd []int     // end of each such net's run in pins, shared by both axes
	net    []pin     // one net's pins at the current positions
	sys    *system
}

// axisPin is a pin along one axis: its variable (the cell center), or -1
// for a fixed pin, and its offset from the variable (DX − W/2) or, for a
// fixed pin, its position.
type axisPin struct {
	vi  int
	val float64
}

// pin is one pin of a net at the current positions.
type pin struct {
	pos float64
	vi  int
	off float64 // pin offset from the variable (0 for fixed pins)
}

// newAxes builds the x and y pin tables and systems for n variables. A
// pin on a fixed cell sits at the cell's placed position plus its
// offset; a pad pin (no cell) at its offset. A pin that names a cell
// outside the design panics here, on Place's goroutine.
func newAxes(d *design.Design, nl *netlist.Netlist, idx []int, n int) (ax, ay *axis) {
	ax, ay = &axis{sys: newSystem(n)}, &axis{sys: newSystem(n)}
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		if len(net.Pins) < 2 {
			continue
		}
		for _, p := range net.Pins {
			px, py := axisPin{-1, p.DX}, axisPin{-1, p.DY}
			if p.Cell >= 0 {
				c := d.Cell(p.Cell)
				if v := idx[p.Cell]; v >= 0 {
					px, py = axisPin{v, p.DX - float64(c.W)/2}, axisPin{v, p.DY - float64(c.H)/2}
				} else {
					px.val, py.val = float64(c.X)+p.DX, float64(c.Y)+p.DY
				}
			}
			ax.pins = append(ax.pins, px)
			ay.pins = append(ay.pins, py)
		}
		ax.netEnd = append(ax.netEnd, len(ax.pins))
	}
	ay.netEnd = ax.netEnd
	return ax, ay
}

// solve assembles the B2B system at the current centers cur, with anchor
// pseudo-nets of weight anchorW toward anchors, and solves it in place.
func (ax *axis) solve(cur, anchors []float64, anchorW float64) {
	sys := ax.sys
	sys.reset()
	start := 0
	for _, end := range ax.netEnd {
		pins := ax.net[:0]
		for _, tp := range ax.pins[start:end] {
			pos, off := tp.val, 0.0
			if tp.vi >= 0 {
				pos = cur[tp.vi] + tp.val
				off = pos - cur[tp.vi]
			}
			pins = append(pins, pin{pos, tp.vi, off})
		}
		ax.net, start = pins, end
		// Identify boundary pins.
		lo, hi := 0, 0
		for i := 1; i < len(pins); i++ {
			if pins[i].pos < pins[lo].pos {
				lo = i
			}
			if pins[i].pos > pins[hi].pos {
				hi = i
			}
		}
		if lo == hi {
			hi = (lo + 1) % len(pins)
		}
		p := len(pins)
		stamp := func(a, b pin) {
			dist := math.Abs(a.pos - b.pos)
			if dist < 1 {
				dist = 1
			}
			w := 2.0 / (float64(p-1) * dist)
			// Spring between positions including pin offsets: the offset
			// contributes a constant, folded into the rhs.
			switch {
			case a.vi >= 0 && b.vi >= 0:
				if a.vi == b.vi {
					return
				}
				sys.addConnection(a.vi, b.vi, w)
				sys.rhs[a.vi] += w * (b.off - a.off)
				sys.rhs[b.vi] += w * (a.off - b.off)
			case a.vi >= 0:
				sys.addAnchor(a.vi, b.pos-a.off, w)
			case b.vi >= 0:
				sys.addAnchor(b.vi, a.pos-b.off, w)
			}
		}
		// B2B: boundary-to-boundary plus boundary-to-inner.
		stamp(pins[lo], pins[hi])
		for i := range pins {
			if i == lo || i == hi {
				continue
			}
			stamp(pins[lo], pins[i])
			stamp(pins[hi], pins[i])
		}
	}
	// Anchor pseudo-nets toward the spread positions.
	for vi := range cur {
		sys.addAnchor(vi, anchors[vi], anchorW)
	}
	// Guarantee strict diagonal dominance for disconnected cells.
	for vi := range cur {
		if sys.diag[vi] == 0 {
			sys.addAnchor(vi, cur[vi], 1)
		}
	}
	sys.solveCG(cur, cgTol, cgMaxIter)
}

func clampCenters(d *design.Design, movable []design.CellID, x, y []float64) {
	bb := d.Bounds()
	for vi, id := range movable {
		c := d.Cell(id)
		minX := float64(bb.X) + float64(c.W)/2
		maxX := float64(bb.X2()) - float64(c.W)/2
		minY := float64(bb.Y) + float64(c.H)/2
		maxY := float64(bb.Y2()) - float64(c.H)/2
		if maxX < minX {
			maxX = minX
		}
		if maxY < minY {
			maxY = minY
		}
		x[vi] = math.Max(minX, math.Min(maxX, x[vi]))
		y[vi] = math.Max(minY, math.Min(maxY, y[vi]))
	}
}

// spreadItem is one cell within a spreading band.
type spreadItem struct {
	vi   int
	pos  float64
	area float64
}

// spread computes look-ahead spread targets: it copies the current
// positions and alternately equalizes cell area in x (within horizontal
// bin bands) and in y (within vertical bin bands) until the peak bin
// utilization drops below the target or a pass budget runs out, then
// writes the damped result into anchorX/anchorY. It returns the peak bin
// utilization of the *input* positions (the congestion the next outer
// iteration is asked to resolve).
func spread(d *design.Design, movable []design.CellID, x, y []float64, anchorX, anchorY []float64) float64 {
	bb := d.Bounds()
	nby := max(1, (bb.H+binH-1)/binH)

	area := make([]float64, len(movable))
	for vi, id := range movable {
		c := d.Cell(id)
		area[vi] = float64(c.W * c.H)
	}
	binY := func(py float64) int {
		return min(nby-1, max(0, int((py-float64(bb.Y))/float64(binH))))
	}
	// Congestion is judged on windows 4×4 bins large: single-bin peaks
	// are dominated by cell-size granularity noise, while the legalizer
	// cares about window-scale density.
	cbw, cbh := 4*binW, 4*binH
	cnx := max(1, (bb.W+cbw-1)/cbw)
	cny := max(1, (bb.H+cbh-1)/cbh)
	peakUtil := func(px, py []float64) float64 {
		util := make([]float64, cnx*cny)
		for vi := range movable {
			bx := min(cnx-1, max(0, int((px[vi]-float64(bb.X))/float64(cbw))))
			by := min(cny-1, max(0, int((py[vi]-float64(bb.Y))/float64(cbh))))
			util[by*cnx+bx] += area[vi]
		}
		peak := 0.0
		for _, u := range util {
			if r := u / float64(cbw*cbh); r > peak {
				peak = r
			}
		}
		return peak
	}
	inPeak := peakUtil(x, y)

	// Deterministic two-step remap to a uniform density field: first
	// equalize cumulative cell area globally in y, then equalize x within
	// each resulting bin band. The damped blend below keeps the move
	// gentle so the next quadratic solve can trade it off against
	// wirelength.
	px := append([]float64(nil), x...)
	py := append([]float64(nil), y...)
	all := make([]spreadItem, len(movable))
	for vi := range movable {
		all[vi] = spreadItem{vi, py[vi], area[vi]}
	}
	equalize(all, float64(bb.Y), float64(bb.Y2()), py, py, 1.0)
	bands := make([][]spreadItem, nby)
	for vi := range movable {
		b := binY(py[vi])
		bands[b] = append(bands[b], spreadItem{vi, px[vi], area[vi]})
	}
	for _, band := range bands {
		equalize(band, float64(bb.X), float64(bb.X2()), px, px, 1.0)
	}
	for vi := range movable {
		anchorX[vi] = x[vi] + spreadDamping*(px[vi]-x[vi])
		anchorY[vi] = y[vi] + spreadDamping*(py[vi]-y[vi])
	}
	return inPeak
}

// equalize redistributes the items of one band uniformly along [lo, hi] by
// cumulative area, blending with damping into anchors.
func equalize(band []spreadItem, lo, hi float64, cur, anchors []float64, damping float64) {
	if len(band) == 0 {
		return
	}
	slices.SortFunc(band, func(a, b spreadItem) int {
		switch {
		case a.pos < b.pos:
			return -1
		case b.pos < a.pos:
			return 1
		}
		return 0
	})
	var total float64
	for _, it := range band {
		total += it.area
	}
	if total == 0 {
		return
	}
	cum := 0.0
	for _, it := range band {
		frac := (cum + it.area/2) / total
		cum += it.area
		eq := lo + frac*(hi-lo)
		anchors[it.vi] = cur[it.vi] + damping*(eq-cur[it.vi])
	}
}
