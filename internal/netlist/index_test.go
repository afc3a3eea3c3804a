package netlist

import (
	"math/rand"
	"reflect"
	"testing"

	"mrlegal/internal/design"
)

// referenceBuildIndex is BuildIndex as it was before it filled one
// counted slice: one append per incident pin.
func referenceBuildIndex(nl *Netlist, numCells int) [][]int32 {
	byCell := make([][]int32, numCells)
	for ni := range nl.Nets {
		for _, p := range nl.Nets[ni].Pins {
			if p.Cell >= 0 && int(p.Cell) < numCells {
				byCell[p.Cell] = append(byCell[p.Cell], int32(ni))
			}
		}
	}
	return byCell
}

// TestBuildIndexMatchesReference: on random netlists with pad pins,
// empty nets, a cell listed twice in one net and pins past the indexed
// cell count, every cell's list equals the reference's, nil where the
// reference's is nil, and appending to one list leaves the next intact.
func TestBuildIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		cells := rng.Intn(40)
		nl := New()
		for n := rng.Intn(60); n > 0; n-- {
			pins := make([]Pin, rng.Intn(6))
			for i := range pins {
				pins[i].Cell = design.CellID(rng.Intn(cells+3) - 1) // -1 is a pad
			}
			nl.AddNet("n", pins...)
		}
		numCells := cells
		if iter%5 == 0 && cells > 0 {
			numCells = rng.Intn(cells) // pins past the index are skipped
		}
		nl.BuildIndex(numCells)
		want := referenceBuildIndex(nl, numCells)
		if !reflect.DeepEqual(nl.byCell, want) {
			t.Fatalf("iter %d: index %v, want %v", iter, nl.byCell, want)
		}
		for c := 0; c+1 < numCells; c++ {
			next := append([]int32(nil), nl.NetsOf(design.CellID(c+1))...)
			_ = append(nl.NetsOf(design.CellID(c)), -1)
			if got := nl.NetsOf(design.CellID(c + 1)); len(next) > 0 && !reflect.DeepEqual(got, next) {
				t.Fatalf("iter %d: appending to cell %d's nets changed cell %d's: %v, want %v", iter, c, c+1, got, next)
			}
		}
	}
}
