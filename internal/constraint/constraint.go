// Package constraint defines the pluggable placement-rule interface the
// MLL engine composes on top of the paper's base legality model
// (overlap, site alignment, row containment, power-rail parity), plus
// the three shipped plugins: fence/power-domain regions, minimum edge
// spacing between x-neighbors, and triple-patterning color
// compatibility.
//
// Each plugin contributes three coordinated pieces (docs/CONSTRAINTS.md
// states the exact contracts and their proofs):
//
//   - a feasibility filter over insertion points, expressed as a
//     per-class row admission predicate (AllowRow), an x-interval clamp
//     for the target (NarrowX) and a required gap between x-adjacent
//     cell classes (Gap) that the engine threads through region
//     squeezing, interval construction, candidate evaluation and
//     realization;
//   - an admissible lower-bound term (Bound) added to the best-first
//     search's per-window bound, so pruning under the plugin can never
//     discard the optimum the filter admits;
//   - a post-placement checker (Check) registered into
//     internal/verify.Check as the independent oracle for the same
//     rule.
//
// Plugins compose through Set: classes combine as a cross product,
// gaps combine as the pairwise maximum, row admission as the
// conjunction, x-clamps as the intersection and bounds as the maximum
// (each term is individually admissible; their max still is, whereas
// their sum would not be).
package constraint

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/verify"
)

// Constraint is one composable placement rule. Implementations must be
// immutable after construction: the engine snapshots nothing, and
// legalizers that share a set (a server's jobs) call its methods
// concurrently.
//
// Cells are abstracted into a small number of classes (NumClasses,
// Class); every other method speaks in class indices so the engine can
// precompute pairwise tables and keep the hot path allocation-free.
type Constraint interface {
	// Name returns the plugin's stable identifier ("fence", "spacing",
	// "tpl"); it prefixes violation kinds and appears in specs.
	Name() string

	// Spec returns the canonical textual form of the plugin, parseable
	// by Parse. Two plugins with equal Spec strings enforce identical
	// rules; Set signatures are built from it.
	Spec() string

	// NumClasses returns how many equivalence classes the plugin
	// partitions cells into. Must be >= 1 and constant.
	NumClasses() int

	// Class maps a cell (its master and site dimensions) to a class in
	// [0, NumClasses()).
	Class(m *design.Master, w, h int) int

	// Gap returns the minimum number of empty sites required between a
	// cell of class l and a cell of class r placed immediately to its
	// right on a shared row. 0 means the base abutment rule.
	Gap(l, r int) int

	// AllowRow reports whether a cell of class cls and height h may
	// have its bottom edge on row y.
	AllowRow(cls, h, y int) bool

	// NarrowX returns the allowed x-range [lo, hi] for the LEFT edge of
	// a width-w cell of class cls, with narrowed=false when the plugin
	// does not restrict x at all. hi may be < lo when no position fits.
	NarrowX(cls, w int) (lo, hi int, narrowed bool)

	// Bound returns an admissible lower bound on the HORIZONTAL cost
	// component of placing a width-w cell of class cls whose desired x
	// is tx: for every insertion point that survives the plugin's own
	// filters, Bound must not exceed the |tx-x| term of that
	// candidate's cost. 0 is always sound.
	Bound(cls, w int, tx float64) float64

	// Check scans a design for violations of the rule, calling add for
	// each one; it must stop when add returns true. It is the oracle
	// counterpart of the engine-side filters: a placement produced with
	// the plugin active must pass with zero violations, assuming every
	// initially-placed cell already satisfied the rule.
	Check(d *design.Design, add func(verify.Violation) bool)
}

// Set is an immutable composition of plugins, ready for the engine's
// hot path: composite classes are precomputed as a cross product over
// the plugins' class spaces and pairwise gaps live in a flat table.
//
// A nil *Set is valid and means "no constraints"; every method treats
// it as neutral.
type Set struct {
	cons    []Constraint
	strides []int   // plugin i's multiplier within the composite class
	classes int     // total composite classes (product of NumClasses)
	gaps    []int32 // classes x classes pairwise max-gap table
	maxGap  int
	sig     string
}

// maxClasses bounds the composite class space so classes fit a uint8 in
// the engine's per-cell scratch.
const maxClasses = 256

// NewSet composes plugins into a Set. The composite class space is the
// cross product of the plugins' class spaces and must stay within 256.
// An empty plugin list yields a non-nil Set that Empty() reports true
// for; callers typically keep nil instead.
func NewSet(cons ...Constraint) (*Set, error) {
	s := &Set{cons: cons, classes: 1}
	specs := make([]string, len(cons))
	for i, c := range cons {
		n := c.NumClasses()
		if n < 1 {
			return nil, fmt.Errorf("constraint: plugin %q reports %d classes", c.Name(), n)
		}
		if s.classes > maxClasses/n {
			return nil, fmt.Errorf("constraint: composite class count exceeds %d", maxClasses)
		}
		s.strides = append(s.strides, s.classes)
		s.classes *= n
		specs[i] = c.Spec()
	}
	s.sig = strings.Join(specs, ";")
	s.gaps = make([]int32, s.classes*s.classes)
	for l := 0; l < s.classes; l++ {
		for r := 0; r < s.classes; r++ {
			g := 0
			for i, c := range cons {
				n := c.NumClasses()
				sub := c.Gap((l/s.strides[i])%n, (r/s.strides[i])%n)
				if sub < 0 {
					return nil, fmt.Errorf("constraint: plugin %q returned negative gap %d", c.Name(), sub)
				}
				g = max(g, sub)
			}
			s.gaps[l*s.classes+r] = int32(g)
			s.maxGap = max(s.maxGap, g)
		}
	}
	return s, nil
}

// Empty reports whether the set enforces nothing.
func (s *Set) Empty() bool { return s == nil || len(s.cons) == 0 }

// Len returns the number of composed plugins.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.cons)
}

// Signature returns the canonical textual form of the whole set — the
// plugins' Spec strings joined with ";". Two sets with equal signatures
// enforce identical rules. The empty signature means no constraints.
func (s *Set) Signature() string {
	if s == nil {
		return ""
	}
	return s.sig
}

// MaxGap returns the largest pairwise gap any plugin may require; the
// engine widens extraction windows and scheduler claims by it.
func (s *Set) MaxGap() int {
	if s == nil {
		return 0
	}
	return s.maxGap
}

// Class maps a cell to its composite class.
func (s *Set) Class(m *design.Master, w, h int) uint8 {
	if s == nil {
		return 0
	}
	cls := 0
	for i, c := range s.cons {
		cls += s.strides[i] * c.Class(m, w, h)
	}
	return uint8(cls)
}

// Gap returns the required empty sites between class l immediately left
// of class r on a shared row: the maximum over the plugins.
func (s *Set) Gap(l, r uint8) int {
	if s == nil {
		return 0
	}
	return int(s.gaps[int(l)*s.classes+int(r)])
}

// AllowRow reports whether every plugin admits bottom row y for a cell
// of composite class cls and height h.
func (s *Set) AllowRow(cls uint8, h, y int) bool {
	if s == nil {
		return true
	}
	for i, c := range s.cons {
		n := c.NumClasses()
		if !c.AllowRow((int(cls)/s.strides[i])%n, h, y) {
			return false
		}
	}
	return true
}

// NarrowX intersects the plugins' x-clamps for the left edge of a
// width-w cell of composite class cls. Unrestricted sides come back as
// math.MinInt / math.MaxInt; hi < lo means no position fits.
func (s *Set) NarrowX(cls uint8, w int) (lo, hi int) {
	lo, hi = math.MinInt, math.MaxInt
	if s == nil {
		return lo, hi
	}
	for i, c := range s.cons {
		n := c.NumClasses()
		if l, h, ok := c.NarrowX((int(cls)/s.strides[i])%n, w); ok {
			lo, hi = max(lo, l), min(hi, h)
		}
	}
	return lo, hi
}

// Bound returns the admissible horizontal lower-bound term for a
// width-w target of composite class cls desiring x=tx: the maximum of
// the plugins' individually admissible terms.
func (s *Set) Bound(cls uint8, w int, tx float64) float64 {
	if s == nil {
		return 0
	}
	b := 0.0
	for i, c := range s.cons {
		n := c.NumClasses()
		b = math.Max(b, c.Bound((int(cls)/s.strides[i])%n, w, tx))
	}
	return b
}

// Checkers returns one post-placement checker per plugin, in
// composition order, in the shape verify.Options.Extra accepts.
func (s *Set) Checkers() []func(d *design.Design, add func(verify.Violation) bool) {
	if s.Empty() {
		return nil
	}
	out := make([]func(d *design.Design, add func(verify.Violation) bool), len(s.cons))
	for i, c := range s.cons {
		out[i] = c.Check
	}
	return out
}

// Check runs every plugin's checker against d, honoring add's stop
// signal.
func (s *Set) Check(d *design.Design, add func(verify.Violation) bool) {
	if s == nil {
		return
	}
	stopped := false
	wrapped := func(v verify.Violation) bool {
		if add(v) {
			stopped = true
		}
		return stopped
	}
	for _, c := range s.cons {
		if stopped {
			return
		}
		c.Check(d, wrapped)
	}
}

// checkAdjacency is the shared oracle sweep for gap-style rules
// (spacing, tpl): per row, movable placed cells are walked in x order
// with fixed cells and blockages acting as adjacency walls (the engine
// never enforces gaps across them — a movable cell may sit flush
// against a fixed wall), and each x-adjacent movable pair must honor
// p.Gap between their classes.
func checkAdjacency(d *design.Design, p Constraint, add func(verify.Violation) bool) {
	type span struct {
		lo, hi int
		id     design.CellID // NoCell marks a wall
		cls    int
	}
	rows := make([][]span, d.NumRows())
	push := func(y int, s span) {
		if y >= 0 && y < len(rows) {
			rows[y] = append(rows[y], s)
		}
	}
	for _, b := range d.Blockages {
		for y := b.Y; y < b.Y2(); y++ {
			push(y, span{lo: b.X, hi: b.X2(), id: design.NoCell})
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Placed {
			continue
		}
		s := span{lo: c.X, hi: c.X + c.W, id: c.ID}
		if c.Fixed {
			s.id = design.NoCell
		} else {
			s.cls = p.Class(d.MasterOf(c.ID), c.W, c.H)
		}
		for h := 0; h < c.H; h++ {
			push(c.Y+h, s)
		}
	}
	for y := range rows {
		os := rows[y]
		sort.Slice(os, func(i, j int) bool {
			if os[i].lo != os[j].lo {
				return os[i].lo < os[j].lo
			}
			return os[i].id < os[j].id
		})
		prev := -1 // index of the previous movable span since the last wall
		for i := range os {
			if os[i].id == design.NoCell {
				prev = -1
				continue
			}
			if prev >= 0 {
				if need := p.Gap(os[prev].cls, os[i].cls); need > 0 && os[i].lo-os[prev].hi < need {
					v := verify.Violation{
						Kind:  p.Name() + "-gap",
						Cells: []design.CellID{os[prev].id, os[i].id},
						Msg: fmt.Sprintf("cells %d and %d on row %d are %d sites apart, %s requires %d",
							os[prev].id, os[i].id, y, os[i].lo-os[prev].hi, p.Name(), need),
					}
					if add(v) {
						return
					}
				}
			}
			prev = i
		}
	}
}

// rectString formats a half-open rect for specs.
func rectString(r geom.Rect) string {
	return fmt.Sprintf("x0=%d,y0=%d,x1=%d,y1=%d", r.X, r.Y, r.X2(), r.Y2())
}
