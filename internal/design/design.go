// Package design models a standard-cell placement instance: the cell
// library (masters), cell instances, placement rows with power rails,
// blockages and the floorplan, all in the site-unit coordinate system of
// §2.1.1 of the paper. Horizontal positions count site widths, vertical
// positions count rows (site heights); lower-left corners are the anchor.
package design

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mrlegal/internal/geom"
)

// MaxCoord bounds every coordinate and size a valid design holds, and
// every target a move or insert may name, in sites or rows: far past any
// die, and small enough that no span, area or displacement computed from
// them overflows.
const MaxCoord = 1 << 30

// Rail identifies a power rail kind on a row or master boundary.
type Rail uint8

const (
	// VSS is the ground rail.
	VSS Rail = iota
	// VDD is the power rail.
	VDD
)

func (r Rail) String() string {
	if r == VDD {
		return "VDD"
	}
	return "VSS"
}

// Orient is a cell instance orientation. Only the two orientations that
// matter for rail alignment are modelled: N (as drawn) and FS (flipped
// about the x axis, i.e. south-flip).
type Orient uint8

const (
	// N is the unflipped orientation.
	N Orient = iota
	// FS is flipped vertically.
	FS
)

func (o Orient) String() string {
	if o == FS {
		return "FS"
	}
	return "N"
}

// Master is a library cell: a pre-designed circuit unit of fixed size.
type Master struct {
	Name   string
	Width  int // in site widths; must be >= 1
	Height int // in rows (site heights); must be >= 1
	// BottomRail is the rail on the master's bottom edge in orientation N.
	// For odd-height masters the top edge carries the opposite rail, so the
	// cell fits any row after an optional flip. For even-height masters the
	// top and bottom edges carry the same rail, so the cell fits only rows
	// whose bottom rail matches BottomRail (constraint 4 of §2).
	BottomRail Rail
}

// MultiRow reports whether the master spans more than one row.
func (m *Master) MultiRow() bool { return m.Height > 1 }

// Row is one placement row of the floorplan. All rows are one site height
// tall. BottomRail alternates between adjacent rows as in a standard
// flipped-row power mesh.
type Row struct {
	Y    int       // row index == y coordinate of the row's lower edge
	Span geom.Span // x extent of placement sites in this row
}

// CellID identifies a cell instance within a Design.
type CellID int

// NoCell is the sentinel "no such cell" value.
const NoCell CellID = -1

// Cell is an instance of a Master placed (or to be placed) on the rows.
type Cell struct {
	ID     CellID
	Name   string
	Master int // index into Design.Lib
	W, H   int // copied from the master for locality

	// X, Y is the current legal lower-left position in site units; only
	// meaningful when Placed is true.
	X, Y   int
	Placed bool
	Orient Orient

	// Fixed cells (macros, pre-placed blocks) never move and act as
	// placement blockages.
	Fixed bool

	// Dead marks a logically deleted cell (an ECO delete). Cells[i].ID ==
	// CellID(i) pins every instance to its slice slot for the life of the
	// design, so deletion is a tombstone: a dead cell is never placed,
	// never counted as work, and never checked — but its ID stays
	// reserved. Delete sets it; the legalizer's session engine is the
	// only writer.
	Dead bool

	// GX, GY is the input (global placement) position in fractional site
	// units. Legalization displacement is measured against this point.
	GX, GY float64
}

// Rect returns the cell's current occupied rectangle. The cell must be
// placed.
func (c *Cell) Rect() geom.Rect { return geom.Rect{X: c.X, Y: c.Y, W: c.W, H: c.H} }

// DispSites returns the cell's displacement from its input position in
// units of site widths: |Δx| + |Δy|·(SiteH/SiteW), as reported in Table 1.
func (c *Cell) DispSites(siteW, siteH int64) float64 {
	if !c.Placed {
		return 0
	}
	dx := float64(c.X) - c.GX
	if dx < 0 {
		dx = -dx
	}
	dy := float64(c.Y) - c.GY
	if dy < 0 {
		dy = -dy
	}
	return dx + dy*float64(siteH)/float64(siteW)
}

// Design is a complete placement instance.
type Design struct {
	Name string
	Lib  []Master
	// Cells holds every instance; Cells[i].ID == CellID(i).
	Cells []Cell
	Rows  []Row
	// Blockages are regions of sites unusable for standard cells (routing
	// blockages, pre-placed macros expressed as area).
	Blockages []geom.Rect

	// SiteW and SiteH are the physical dimensions of one placement site in
	// database units (e.g. nanometres). Used only for reporting
	// displacement and wirelength in physical units.
	SiteW, SiteH int64
}

// New returns an empty design with the given physical site dimensions.
func New(name string, siteW, siteH int64) *Design {
	if siteW <= 0 || siteH <= 0 {
		panic("design: site dimensions must be positive")
	}
	return &Design{Name: name, SiteW: siteW, SiteH: siteH}
}

// AddMaster appends a master to the library and returns its index.
func (d *Design) AddMaster(m Master) int {
	if m.Width < 1 || m.Height < 1 {
		panic(fmt.Sprintf("design: master %q has non-positive size %dx%d", m.Name, m.Width, m.Height))
	}
	d.Lib = append(d.Lib, m)
	return len(d.Lib) - 1
}

// AddCell appends a cell instance of master index mi and returns its ID.
// The instance starts unplaced with its input position at (gx, gy).
func (d *Design) AddCell(name string, mi int, gx, gy float64) CellID {
	if mi < 0 || mi >= len(d.Lib) {
		panic(fmt.Sprintf("design: AddCell %q: master index %d out of range", name, mi))
	}
	m := &d.Lib[mi]
	id := CellID(len(d.Cells))
	d.Cells = append(d.Cells, Cell{
		ID:     id,
		Name:   name,
		Master: mi,
		W:      m.Width,
		H:      m.Height,
		GX:     gx,
		GY:     gy,
	})
	return id
}

// AddUniformRows appends n rows with identical span, numbered from row 0.
// It panics if rows already exist.
func (d *Design) AddUniformRows(n int, span geom.Span) {
	if len(d.Rows) != 0 {
		panic("design: AddUniformRows on non-empty row set")
	}
	if span.Empty() {
		panic("design: AddUniformRows with empty span")
	}
	d.Rows = make([]Row, n)
	for i := range d.Rows {
		d.Rows[i] = Row{Y: i, Span: span}
	}
}

// Validate sorts d.Rows by Y and checks the structure the engine assumes.
// Every reader of outside input calls it (and netlist's Validate) before
// it returns a design:
//
//   - there is at least one row, and the rows' Y values are exactly
//     0…n−1, each row spanning a non-empty [Lo, Hi) within ±MaxCoord;
//   - blockages have non-negative sizes, all within ±MaxCoord;
//   - every master is 1 to MaxCoord sites wide and fits the rows;
//   - every cell's input position is finite and within ±MaxCoord;
//   - a placed cell sits on a row, at an x within ±MaxCoord;
//   - a fixed cell is placed.
func (d *Design) Validate() error {
	slices.SortFunc(d.Rows, func(a, b Row) int { return cmp.Compare(a.Y, b.Y) })
	if len(d.Rows) == 0 {
		return fmt.Errorf("design: at least one row is required")
	}
	for i := range d.Rows {
		r := &d.Rows[i]
		if r.Y != i {
			return fmt.Errorf("design: row y=%d: rows must be numbered 0 to %d, each once", r.Y, len(d.Rows)-1)
		}
		if r.Span.Lo >= r.Span.Hi || !within(r.Span.Lo) || !within(r.Span.Hi) {
			return fmt.Errorf("design: row %d span [%d, %d) is empty or out of range", r.Y, r.Span.Lo, r.Span.Hi)
		}
	}
	for i, b := range d.Blockages {
		if !within(b.X) || !within(b.Y) || b.W < 0 || b.H < 0 || b.W > MaxCoord || b.H > MaxCoord {
			return fmt.Errorf("design: blockage %d (%d, %d, %d, %d) has a negative size or is out of range", i, b.X, b.Y, b.W, b.H)
		}
	}
	for i := range d.Lib {
		m := &d.Lib[i]
		if m.Width < 1 || m.Width > MaxCoord || m.Height < 1 || m.Height > len(d.Rows) {
			return fmt.Errorf("design: master %q is %dx%d; want 1 to %d sites wide and 1 to %d rows tall",
				m.Name, m.Width, m.Height, MaxCoord, len(d.Rows))
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !(math.Abs(c.GX) <= MaxCoord && math.Abs(c.GY) <= MaxCoord) { // NaN compares false, so it fails too
			return fmt.Errorf("design: cell %q has input position (%v, %v), want finite and within ±%d", c.Name, c.GX, c.GY, MaxCoord)
		}
		if c.Placed && (c.Y < 0 || c.Y >= len(d.Rows) || !within(c.X)) {
			return fmt.Errorf("design: cell %q is placed at (%d, %d), off the rows", c.Name, c.X, c.Y)
		}
		if c.Fixed && !c.Placed {
			return fmt.Errorf("design: cell %q is fixed but not placed", c.Name)
		}
	}
	return nil
}

// within reports whether v lies within ±MaxCoord.
func within(v int) bool { return -MaxCoord <= v && v <= MaxCoord }

// Cell returns the cell with the given ID.
func (d *Design) Cell(id CellID) *Cell {
	return &d.Cells[id]
}

// MasterOf returns the master of the given cell.
func (d *Design) MasterOf(id CellID) *Master {
	return &d.Lib[d.Cells[id].Master]
}

// NumRows returns the number of placement rows.
func (d *Design) NumRows() int { return len(d.Rows) }

// RowAt returns the row with index y, or nil when out of range.
func (d *Design) RowAt(y int) *Row {
	if y < 0 || y >= len(d.Rows) {
		return nil
	}
	return &d.Rows[y]
}

// RowBottomRail returns the rail at the bottom edge of row y. By
// convention even rows have VSS at the bottom and odd rows VDD, forming
// the standard alternating (flipped-row) rail pattern of Figure 1.
func (d *Design) RowBottomRail(y int) Rail {
	if y%2 == 0 {
		return VSS
	}
	return VDD
}

// RailCompatible reports whether a cell of the given master may be placed
// with its bottom edge on row y under the power-rail alignment rule
// (constraint 4 of §2):
//
//   - odd-height masters fit every row (a vertical flip reconciles the
//     rails);
//   - even-height masters fit only rows whose bottom rail matches the
//     master's BottomRail.
func (d *Design) RailCompatible(m *Master, y int) bool {
	if m.Height%2 == 1 {
		return true
	}
	return d.RowBottomRail(y) == m.BottomRail
}

// OrientFor returns the orientation a cell of master m assumes when placed
// with its bottom edge on row y: N when the master's bottom rail matches
// the row's bottom rail, FS otherwise (only meaningful, and only possible,
// for odd-height masters).
func (d *Design) OrientFor(m *Master, y int) Orient {
	if d.RowBottomRail(y) == m.BottomRail {
		return N
	}
	return FS
}

// Place records a legal position for the cell. It performs no legality
// checking; see internal/verify for that.
func (d *Design) Place(id CellID, x, y int) {
	c := &d.Cells[id]
	c.X, c.Y = x, y
	c.Placed = true
	c.Orient = d.OrientFor(&d.Lib[c.Master], y)
}

// Unplace marks the cell as not occupying any site.
func (d *Design) Unplace(id CellID) {
	d.Cells[id].Placed = false
}

// Delete tombstones a movable cell (see Cell.Dead). The caller must have
// unplaced the cell (and removed it from any occupancy structure) first;
// fixed cells cannot be deleted because they act as blockages other
// placements already depend on.
func (d *Design) Delete(id CellID) {
	c := &d.Cells[id]
	if c.Fixed {
		panic(fmt.Sprintf("design: Delete %d (%s): cell is fixed", id, c.Name))
	}
	if c.Placed {
		panic(fmt.Sprintf("design: Delete %d (%s): cell is still placed", id, c.Name))
	}
	c.Dead = true
}

// CellArea returns the total movable cell area in site units.
func (d *Design) CellArea() int64 {
	var a int64
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed || c.Dead {
			continue
		}
		a += int64(c.W) * int64(c.H)
	}
	return a
}

// PlaceableArea returns the total row area minus blockage overlap, in site
// units.
func (d *Design) PlaceableArea() int64 {
	var a int64
	for i := range d.Rows {
		r := &d.Rows[i]
		rowRect := geom.Rect{X: r.Span.Lo, Y: r.Y, W: r.Span.Len(), H: 1}
		a += rowRect.Area()
		for _, b := range d.Blockages {
			if ov := rowRect.Intersect(b); !ov.Empty() {
				a -= ov.Area()
			}
		}
	}
	// Fixed cells also consume placeable area.
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed && c.Placed {
			a -= c.Rect().Area()
		}
	}
	return a
}

// Density returns movable cell area divided by placeable area.
func (d *Design) Density() float64 {
	pa := d.PlaceableArea()
	if pa == 0 {
		return 0
	}
	return float64(d.CellArea()) / float64(pa)
}

// Bounds returns the bounding rectangle of all rows.
func (d *Design) Bounds() geom.Rect {
	var b geom.Rect
	for i := range d.Rows {
		r := &d.Rows[i]
		b = b.Union(geom.Rect{X: r.Span.Lo, Y: r.Y, W: r.Span.Len(), H: 1})
	}
	return b
}

// Clone returns a deep copy of the design (library, cells, rows,
// blockages). Useful for running several legalizers on the same input.
func (d *Design) Clone() *Design {
	nd := &Design{
		Name:  d.Name,
		SiteW: d.SiteW,
		SiteH: d.SiteH,
	}
	nd.Lib = append([]Master(nil), d.Lib...)
	nd.Cells = append([]Cell(nil), d.Cells...)
	nd.Rows = append([]Row(nil), d.Rows...)
	nd.Blockages = append([]geom.Rect(nil), d.Blockages...)
	return nd
}

// ResetPlacement unplaces every movable cell (fixed cells keep their
// positions).
func (d *Design) ResetPlacement() {
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			d.Cells[i].Placed = false
		}
	}
}

// Stats summarizes the cell population of a design.
type Stats struct {
	SingleRow int // movable cells of height 1
	MultiRow  int // movable cells of height > 1
	Fixed     int
	MaxHeight int
}

// CellStats counts cells by category.
func (d *Design) CellStats() Stats {
	var s Stats
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Dead {
			continue
		}
		if c.Fixed {
			s.Fixed++
			continue
		}
		if c.H > 1 {
			s.MultiRow++
		} else {
			s.SingleRow++
		}
		if c.H > s.MaxHeight {
			s.MaxHeight = c.H
		}
	}
	return s
}

// TotalDispSites returns the summed and average displacement over placed
// movable cells, in site widths.
func (d *Design) TotalDispSites() (total, avg float64) {
	n := 0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed || !c.Placed {
			continue
		}
		total += c.DispSites(d.SiteW, d.SiteH)
		n++
	}
	if n > 0 {
		avg = total / float64(n)
	}
	return total, avg
}
