// Package detailed is a wirelength-driven detailed placer built on the
// instant-legalization primitive of internal/core, the application that
// motivated MLL (§1 of the paper, following the density-aware detailed
// placement of [11] and [12]): every cell move goes through Multi-row
// Local Legalization, so each intermediate placement is legal and the
// optimizer never has to repair anything.
//
// The move generator is the classic optimal-region move: a cell's ideal
// position is the median of its connected pins. Moves are screened with a
// self-gain estimate (the HPWL change of the cell's own nets if only the
// cell moved) and the realized placement is tracked with an incremental
// per-net HPWL cache updated from Legalizer.LastMoved, so a full pass
// costs O(pins) rather than O(nets²).
package detailed

import (
	"fmt"
	"math"
	"sort"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/netlist"
)

// Config tunes the optimizer.
type Config struct {
	// Passes is the number of sweeps over all cells (default 3).
	Passes int
	// MinGain is the minimal estimated HPWL gain (database units) for a
	// move to be attempted (default: one site width).
	MinGain float64
	// MaxDist skips moves whose target is further than this many site
	// widths from the current position (0 = no limit); long moves through
	// dense regions rarely realize their estimated gain.
	MaxDist float64
}

// Stats reports one Optimize run.
type Stats struct {
	Passes     int
	Attempted  int
	Moved      int
	HPWLBefore float64
	HPWLAfter  float64
}

// Optimize improves HPWL by median moves with instant legalization. The
// legalizer's design must already be fully placed and legal.
func Optimize(l *core.Legalizer, nl *netlist.Netlist, cfg Config) Stats {
	if cfg.Passes == 0 {
		cfg.Passes = 3
	}
	d := l.D
	if cfg.MinGain == 0 {
		cfg.MinGain = float64(d.SiteW)
	}

	cache := newHPWLCache(d, nl)
	st := Stats{HPWLBefore: cache.total}

	for pass := 0; pass < cfg.Passes; pass++ {
		st.Passes++
		improvedThisPass := false
		for i := range d.Cells {
			id := design.CellID(i)
			c := d.Cell(id)
			if c.Fixed || !c.Placed {
				continue
			}
			tx, ty, ok := medianTarget(d, nl, id)
			if !ok {
				continue
			}
			if cfg.MaxDist > 0 {
				dist := math.Abs(tx-float64(c.X)) + math.Abs(ty-float64(c.Y))*float64(d.SiteH)/float64(d.SiteW)
				if dist > cfg.MaxDist {
					continue
				}
			}
			gain := selfGain(d, nl, id, tx, ty)
			if gain < cfg.MinGain {
				continue
			}
			st.Attempted++
			if l.MoveCell(id, tx, ty) != nil {
				continue
			}
			st.Moved++
			improvedThisPass = true
			cache.update(id)
			for _, mid := range l.LastMoved() {
				cache.update(mid)
			}
		}
		if !improvedThisPass {
			break
		}
	}
	st.HPWLAfter = cache.total
	return st
}

// medianTarget returns the median position of the pins connected to id
// (excluding id's own pins), in fractional site units for the cell's
// lower-left corner.
func medianTarget(d *design.Design, nl *netlist.Netlist, id design.CellID) (float64, float64, bool) {
	var xs, ys []float64
	for _, ni := range nl.NetsOf(id) {
		for _, p := range nl.Nets[ni].Pins {
			if p.Cell == id {
				continue
			}
			x, y := pinPos(d, p)
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	if len(xs) == 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	c := d.Cell(id)
	// Target the cell center at the median; return the lower-left corner.
	return xs[len(xs)/2] - float64(c.W)/2, ys[len(ys)/2] - float64(c.H)/2, true
}

// pinPos returns a pin position in site units (x in site widths, y in
// rows), using placed coordinates.
func pinPos(d *design.Design, p netlist.Pin) (float64, float64) {
	if p.Cell == design.NoCell {
		return p.DX, p.DY
	}
	c := d.Cell(p.Cell)
	return float64(c.X) + p.DX, float64(c.Y) + p.DY
}

// selfGain estimates the HPWL improvement (database units) of moving only
// cell id so its lower-left corner lands at (tx, ty).
func selfGain(d *design.Design, nl *netlist.Netlist, id design.CellID, tx, ty float64) float64 {
	c := d.Cell(id)
	dx := tx - float64(c.X)
	dy := ty - float64(c.Y)
	var gain float64
	for _, ni := range nl.NetsOf(id) {
		net := &nl.Nets[ni]
		if len(net.Pins) < 2 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		nminX, nmaxX := math.Inf(1), math.Inf(-1)
		nminY, nmaxY := math.Inf(1), math.Inf(-1)
		for _, p := range net.Pins {
			x, y := pinPos(d, p)
			nx, ny := x, y
			if p.Cell == id {
				nx += dx
				ny += dy
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
			nminX, nmaxX = math.Min(nminX, nx), math.Max(nmaxX, nx)
			nminY, nmaxY = math.Min(nminY, ny), math.Max(nmaxY, ny)
		}
		gain += ((maxX-minX)-(nmaxX-nminX))*float64(d.SiteW) +
			((maxY-minY)-(nmaxY-nminY))*float64(d.SiteH)
	}
	return gain
}

// hpwlCache tracks total HPWL incrementally.
type hpwlCache struct {
	d     *design.Design
	nl    *netlist.Netlist
	per   []float64
	total float64
}

func newHPWLCache(d *design.Design, nl *netlist.Netlist) *hpwlCache {
	c := &hpwlCache{d: d, nl: nl, per: make([]float64, len(nl.Nets))}
	for ni := range nl.Nets {
		c.per[ni] = nl.NetHPWL(d, ni)
		c.total += c.per[ni]
	}
	return c
}

// update refreshes the cached lengths of every net incident to the cell.
func (c *hpwlCache) update(id design.CellID) {
	for _, ni := range c.nl.NetsOf(id) {
		nv := c.nl.NetHPWL(c.d, int(ni))
		c.total += nv - c.per[ni]
		c.per[ni] = nv
	}
}

// Total returns the cached total HPWL (database units).
func (c *hpwlCache) Total() float64 { return c.total }

// SwapStats reports one OptimizeSwaps run.
type SwapStats struct {
	Attempted int
	Swapped   int
	HPWLAfter float64
}

// OptimizeSwaps runs one pass of same-footprint cell swapping, the other
// classic detailed placement move (the paper's §1 notes plain reordering
// breaks with multi-row cells; swapping two cells of identical width and
// height is the multi-row-safe special case, since exchanging equal
// footprints can never create overlap). Pairs are proposed between each
// cell and the best candidate of the same footprint among its nets'
// neighbors; a swap is committed when it reduces the true (cached) HPWL.
func OptimizeSwaps(l *core.Legalizer, nl *netlist.Netlist, maxPairs int) SwapStats {
	d := l.D
	cache := newHPWLCache(d, nl)
	st := SwapStats{}

	for i := range d.Cells {
		if maxPairs > 0 && st.Attempted >= maxPairs {
			break
		}
		a := design.CellID(i)
		ca := d.Cell(a)
		if ca.Fixed || !ca.Placed {
			continue
		}
		// Candidate: the same-footprint cell sharing a net whose position
		// is nearest a's optimal region.
		tx, ty, ok := medianTarget(d, nl, a)
		if !ok {
			continue
		}
		var best design.CellID = design.NoCell
		bestDist := math.Inf(1)
		for _, ni := range nl.NetsOf(a) {
			for _, p := range nl.Nets[ni].Pins {
				b := p.Cell
				if b == a || b == design.NoCell {
					continue
				}
				cb := d.Cell(b)
				if cb.Fixed || !cb.Placed || cb.W != ca.W || cb.H != ca.H {
					continue
				}
				dist := math.Abs(float64(cb.X)-tx) + math.Abs(float64(cb.Y)-ty)
				if dist < bestDist {
					bestDist = dist
					best = b
				}
			}
		}
		if best == design.NoCell {
			continue
		}
		st.Attempted++
		if trySwap(l, cache, a, best) {
			st.Swapped++
		}
	}
	st.HPWLAfter = cache.total
	return st
}

// trySwap exchanges two equal-footprint placed cells and keeps the swap
// only when the cached HPWL improves. Equal footprints of one constraint
// class make the exchange trivially legal, since every plugin's gaps, row
// admission and x-clamp depend only on the class, so it bypasses MLL and
// manipulates the grid directly.
func trySwap(l *core.Legalizer, cache *hpwlCache, a, b design.CellID) bool {
	d := l.D
	ca, cb := d.Cell(a), d.Cell(b)
	if ca.W != cb.W || ca.H != cb.H {
		return false
	}
	if cons := l.Cfg.Constraints; cons.Class(d.MasterOf(a), ca.W, ca.H) != cons.Class(d.MasterOf(b), cb.W, cb.H) {
		return false
	}
	// Rail parity: even-height cells on different-parity rows cannot swap.
	if l.Cfg.PowerAlign && ca.H%2 == 0 && (ca.Y%2 != cb.Y%2) {
		return false
	}
	before := cache.total
	swap := func() {
		ax, ay := ca.X, ca.Y
		bx, by := cb.X, cb.Y
		l.G.Remove(a)
		l.G.Remove(b)
		d.Place(a, bx, by)
		d.Place(b, ax, ay)
		if err := l.G.Insert(a); err != nil {
			panic(fmt.Sprintf("detailed: swap insert a: %v", err))
		}
		if err := l.G.Insert(b); err != nil {
			panic(fmt.Sprintf("detailed: swap insert b: %v", err))
		}
		cache.update(a)
		cache.update(b)
	}
	swap()
	if cache.total < before-1e-9 {
		return true
	}
	swap() // revert
	return false
}
