package bengen

import (
	"fmt"
	"math"
	"math/rand"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
)

// Million-cell scaling designs. Generate builds paper-shaped benchmarks
// but pays for a clustered netlist and expects a quadratic global-place
// pass to produce input positions — at 10⁶ cells both are prohibitive
// and neither matters for legalization scaling runs. GenerateSized
// streams a design of any size in O(NumCells) memory (the output itself)
// with input positions synthesized directly: a row-major strip fill at
// the target density plus seeded jitter, which is exactly the "roughly
// legal but overlapping" shape a global placement hands the legalizer.

// SizeSpec describes one synthetic scaling design for GenerateSized.
type SizeSpec struct {
	Name       string
	NumCells   int
	Density    float64 // target design density; default 0.6
	DoubleFrac float64 // fraction of double-height cells; default 0.10
	Seed       int64
}

func (s *SizeSpec) defaults() {
	if s.Density == 0 {
		s.Density = 0.6
	}
	if s.DoubleFrac == 0 {
		s.DoubleFrac = 0.10
	}
}

// GenerateSized streams a NumCells-cell design with pre-set input
// positions, deterministically from the seed. No netlist is built and no
// global placer is needed: positions come from a density-normalized
// strip fill with jitter, so every cell sits near a feasible spot but
// neighbors overlap — the legalizer's real workload shape. Peak memory
// is O(NumCells): one (width, height) draw per cell plus the design
// arrays themselves.
func GenerateSized(spec SizeSpec) *design.Design {
	spec.defaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	d := design.New(spec.Name, SiteW, SiteH)

	masterIdx := map[[2]int]int{}
	masterFor := func(w, h int) int {
		if mi, ok := masterIdx[[2]int{w, h}]; ok {
			return mi
		}
		mi := d.AddMaster(design.Master{
			Name:       fmt.Sprintf("sz_%dx%d", w, h),
			Width:      w,
			Height:     h,
			BottomRail: design.VSS,
		})
		masterIdx[[2]int{w, h}] = mi
		return mi
	}

	// Pass 1: draw every cell's shape (doubles interleaved, so tall cells
	// spread over the whole die instead of clustering in one strip) and
	// accumulate the total area the floorplan must hold.
	type shape struct{ w, h int16 }
	shapes := make([]shape, spec.NumCells)
	var cellArea int64
	for i := range shapes {
		w, h := pickWidth(rng, singleWidths), 1
		if rng.Float64() < spec.DoubleFrac {
			w, h = pickWidth(rng, doubleBaseWidths)/2, 2
		}
		shapes[i] = shape{w: int16(w), h: int16(h)}
		cellArea += int64(w) * int64(h)
	}

	// Floorplan: near-square die at the target density, as Generate.
	total := float64(cellArea) / spec.Density
	rows := int(math.Round(math.Sqrt(total * float64(SiteW) / float64(SiteH))))
	if rows < 8 {
		rows = 8
	}
	rows = (rows + 1) &^ 1
	width := int(math.Ceil(total / float64(rows)))
	minW := 48 // ≥ 4× the widest master, as Generate's floor
	if width < minW {
		width = minW
	}
	d.AddUniformRows(rows, geom.Span{Lo: 0, Hi: width})

	// Pass 2: strip-fill cursor. Each cell advances the cursor by its
	// density-normalized area footprint, so the fill covers every row at
	// uniform utilization; jitter makes neighbors overlap slightly.
	x, y := 0.0, 0.0
	for i, s := range shapes {
		w, h := int(s.w), int(s.h)
		adv := float64(w) * float64(h) / spec.Density
		if x+float64(w) > float64(width) {
			x = 0
			y++
			if y > float64(rows-1) {
				y = 0
			}
		}
		gx := x + (rng.Float64()-0.5)*4
		gy := y + (rng.Float64()-0.5)*1.5
		gx = math.Min(math.Max(gx, 0), float64(width-w))
		gy = math.Min(math.Max(gy, 0), float64(rows-h))
		d.AddCell(fmt.Sprintf("c%d", i), masterFor(w, h), gx, gy)
		x += adv
	}
	return d
}
