package iodesign

import (
	"bytes"
	"io"
	"testing"

	"mrlegal/internal/bengen"
)

// readAllocSlack is what Read may allocate beyond one string per name on
// the design below: the scanner's buffer, the design and netlist, the
// field slice, the pin slab's chunks, the three BuildIndex slices and the
// growth steps of the row, master, cell and net slices. It does not grow
// with the cell count except through those logarithmic growth steps.
const readAllocSlack = 80

func allocText(t *testing.T, cells int) (text []byte, names int) {
	t.Helper()
	b := bengen.Generate(bengen.Spec{Name: "alloc", NumCells: cells, Density: 0.6, Seed: 11})
	var buf bytes.Buffer
	if err := Write(&buf, b.D, b.NL); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), 1 + len(b.D.Lib) + len(b.D.Cells) + len(b.NL.Nets)
}

// TestReadAllocs: Read allocates one string per name (design, masters,
// cells, nets) and a constant beside. On this design, 2,000 cells and
// 2,300 nets, the string-per-line reader allocated about 9.5 times per
// cell (18,938 allocations): a line string, a field slice, an ints slice
// per directive, an append-grown pin list per net and one per cell's net
// index. This reader makes 61 beyond the 4,314 names.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race runtime")
	}
	text, names := allocText(t, 2000)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := Read(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(names + readAllocSlack); allocs > limit {
		t.Fatalf("Read: %.0f allocations for %d names; want at most %.0f", allocs, names, limit)
	}
}

// TestWriteAllocsFlat: Write's allocations do not grow with the design.
// The fmt-based writer's grew with it, 1,864 at 200 cells and 64,211 at
// 5,000; this one makes one, its buffer.
func TestWriteAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race runtime")
	}
	count := func(cells int) float64 {
		b := bengen.Generate(bengen.Spec{Name: "alloc", NumCells: cells, Density: 0.6, Seed: 11})
		return testing.AllocsPerRun(5, func() {
			if err := Write(io.Discard, b.D, b.NL); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := count(200), count(5000)
	if large > small || large > 2 {
		t.Fatalf("Write: %.0f allocations at 200 cells, %.0f at 5,000; want the same, at most 2", small, large)
	}
}
