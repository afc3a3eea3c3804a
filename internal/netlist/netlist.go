// Package netlist models the connectivity of a design — nets joining pins
// on cells — and evaluates half-perimeter wirelength (HPWL), the metric
// used for the ΔHPWL column of Table 1.
//
// Pin positions are cell lower-left offsets in fractional site units, so
// HPWL is measured in database units via the design's site dimensions.
package netlist

import (
	"fmt"
	"math"

	"mrlegal/internal/design"
)

// Pin is one connection point of a net.
type Pin struct {
	Cell design.CellID // NoCell for a fixed I/O pad pin
	// DX, DY is the pin offset from the cell's lower-left corner in
	// fractional site units. For pad pins (Cell == NoCell) these are
	// absolute coordinates.
	DX, DY float64
}

// Net is a set of electrically connected pins.
type Net struct {
	Name string
	Pins []Pin
}

// Netlist is the connectivity of one design.
type Netlist struct {
	Nets []Net
	// byCell[c] lists the nets incident to cell c; built lazily by
	// BuildIndex and used for incremental HPWL evaluation.
	byCell [][]int32
}

// New returns an empty netlist.
func New() *Netlist { return &Netlist{} }

// AddNet appends a net and returns its index.
func (nl *Netlist) AddNet(name string, pins ...Pin) int {
	nl.Nets = append(nl.Nets, Net{Name: name, Pins: pins})
	nl.byCell = nil
	return len(nl.Nets) - 1
}

// BuildIndex (re)builds the cell → nets index for a design with n cells.
// It counts each cell's pins, fills one []int32 in net order, and hands
// each cell its sub-slice of it (nil for a cell on no net). A net that
// lists a cell twice appears twice in its list.
func (nl *Netlist) BuildIndex(numCells int) {
	// end[c+1] first counts cell c's pins. The prefix sum makes end[c]
	// where cell c's run of flat starts, and filling moves it to where the
	// run ends.
	end := make([]int, numCells+1)
	for ni := range nl.Nets {
		for _, p := range nl.Nets[ni].Pins {
			if p.Cell >= 0 && int(p.Cell) < numCells {
				end[p.Cell+1]++
			}
		}
	}
	for c := 1; c <= numCells; c++ {
		end[c] += end[c-1]
	}
	flat := make([]int32, end[numCells])
	for ni := range nl.Nets {
		for _, p := range nl.Nets[ni].Pins {
			if p.Cell >= 0 && int(p.Cell) < numCells {
				flat[end[p.Cell]] = int32(ni)
				end[p.Cell]++
			}
		}
	}
	nl.byCell = make([][]int32, numCells)
	lo := 0
	for c := range nl.byCell {
		if hi := end[c]; hi > lo {
			nl.byCell[c] = flat[lo:hi:hi]
			lo = hi
		}
	}
}

// NetsOf returns the indices of the nets incident to cell c. BuildIndex
// must have been called. Cells created after the last BuildIndex have no
// indexed nets and yield nil.
func (nl *Netlist) NetsOf(c design.CellID) []int32 {
	if nl.byCell == nil {
		panic("netlist: NetsOf before BuildIndex")
	}
	if int(c) >= len(nl.byCell) || c < 0 {
		return nil
	}
	return nl.byCell[c]
}

// pinPos returns the physical position of pin p in database units, using
// the cell's current placed position, or its input (global placement)
// position when the cell is unplaced.
func pinPos(d *design.Design, p Pin) (x, y float64) {
	if p.Cell < 0 {
		return p.DX * float64(d.SiteW), p.DY * float64(d.SiteH)
	}
	c := d.Cell(p.Cell)
	var cx, cy float64
	if c.Placed {
		cx, cy = float64(c.X), float64(c.Y)
	} else {
		cx, cy = c.GX, c.GY
	}
	return (cx + p.DX) * float64(d.SiteW), (cy + p.DY) * float64(d.SiteH)
}

// NetHPWL returns the half-perimeter wirelength of net ni in database
// units. Nets with fewer than two pins have zero length.
func (nl *Netlist) NetHPWL(d *design.Design, ni int) float64 {
	n := &nl.Nets[ni]
	if len(n.Pins) < 2 {
		return 0
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range n.Pins {
		x, y := pinPos(d, p)
		minX = math.Min(minX, x)
		maxX = math.Max(maxX, x)
		minY = math.Min(minY, y)
		maxY = math.Max(maxY, y)
	}
	return (maxX - minX) + (maxY - minY)
}

// HPWL returns the total half-perimeter wirelength in database units.
func (nl *Netlist) HPWL(d *design.Design) float64 {
	var total float64
	for ni := range nl.Nets {
		total += nl.NetHPWL(d, ni)
	}
	return total
}

// HPWLDelta returns (after-before)/before given two snapshots of total
// wirelength; it guards against a zero baseline.
func HPWLDelta(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / before
}

// Validate checks that every pin names a cell of d, or none (a pad), and
// has a finite offset.
func (nl *Netlist) Validate(d *design.Design) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for ni := range nl.Nets {
		for pi, p := range nl.Nets[ni].Pins {
			if p.Cell != design.NoCell && (p.Cell < 0 || int(p.Cell) >= len(d.Cells)) {
				return fmt.Errorf("netlist: net %d pin %d references invalid cell %d", ni, pi, p.Cell)
			}
			if !finite(p.DX) || !finite(p.DY) {
				return fmt.Errorf("netlist: net %d pin %d has non-finite offset (%v, %v)", ni, pi, p.DX, p.DY)
			}
		}
	}
	return nil
}
