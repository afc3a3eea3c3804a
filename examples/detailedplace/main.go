// Detailed placement with instant legalization — the application that
// motivated MLL (§1: "for every cell move, the detailed placer performs
// legalization such that all intermediate placement solutions are
// legal").
//
// The example runs a simple wirelength-driven detailed placer: for a few
// passes, every cell is offered a move to the median position of its
// connected cells (the classic optimal-region move); the move is executed
// through MoveCell, which locally legalizes it, so the placement is legal
// after every accepted move and rejected moves leave no trace.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"mrlegal"
)

// optimalRegion returns the median x/y of the cells connected to id
// (excluding id itself), the classic detailed-placement target.
func optimalRegion(d *mrlegal.Design, nl *mrlegal.Netlist, id mrlegal.CellID) (float64, float64, bool) {
	var xs, ys []float64
	for _, ni := range nl.NetsOf(id) {
		for _, p := range nl.Nets[ni].Pins {
			if p.Cell == id || p.Cell == mrlegal.NoCell {
				continue
			}
			c := d.Cell(p.Cell)
			xs = append(xs, float64(c.X)+p.DX)
			ys = append(ys, float64(c.Y)+p.DY)
		}
	}
	if len(xs) == 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return xs[len(xs)/2], ys[len(ys)/2], true
}

func main() {
	b := mrlegal.GenerateBenchmark(mrlegal.BenchmarkSpec{
		Name: "dp", NumCells: 2500, Density: 0.55, Seed: 5,
	})
	d, nl := b.D, b.NL
	mrlegal.GlobalPlace(d, nl, mrlegal.GlobalPlaceConfig{Seed: 5})

	l, err := mrlegal.NewLegalizer(d, mrlegal.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		log.Fatal(err)
	}
	start := nl.HPWL(d)
	fmt.Printf("legalized %d cells; HPWL %.5g\n", len(d.Cells), start)

	// Variant A: the built-in optimizer (estimated-gain screening +
	// incremental HPWL cache; see internal/detailed).
	st := mrlegal.DetailedPlace(l, nl, mrlegal.DetailedPlaceConfig{Passes: 3})
	fmt.Printf("built-in optimizer: %d/%d moves executed over %d passes, HPWL %.5g → %.5g\n",
		st.Moved, st.Attempted, st.Passes, st.HPWLBefore, st.HPWLAfter)

	// Variant B: a hand-rolled greedy pass with exact accept/reject, to
	// show the raw MoveCell API. Undoing a move is just another
	// instant-legalized move.
	accepted, tried := 0, 0
	for i := range d.Cells {
		id := mrlegal.CellID(i)
		if d.Cell(id).Fixed {
			continue
		}
		tx, ty, ok := optimalRegion(d, nl, id)
		if !ok {
			continue
		}
		before := nl.HPWL(d)
		c := d.Cell(id)
		oldX, oldY := c.X, c.Y
		if l.MoveCell(id, tx, ty) != nil {
			continue
		}
		tried++
		if nl.HPWL(d) >= before {
			// A failed undo leaves the cell at its new, still legal spot.
			_ = l.MoveCell(id, float64(oldX), float64(oldY))
		} else {
			accepted++
		}
	}
	fmt.Printf("greedy pass: %d/%d moves improved HPWL → %.5g\n", accepted, tried, nl.HPWL(d))

	// Variant C: equal-footprint cell swapping — the multi-row-safe
	// special case of the classic reordering move.
	sw := mrlegal.DetailedPlaceSwaps(l, nl, 0)
	fmt.Printf("swap pass: %d/%d pairs swapped, HPWL → %.5g\n", sw.Swapped, sw.Attempted, sw.HPWLAfter)
	final := nl.HPWL(d)
	if !mrlegal.IsLegal(d, mrlegal.VerifyOptions{RequirePlaced: true, PowerAlignment: true}) {
		log.Fatal("placement became illegal")
	}
	fmt.Printf("detailed placement improved HPWL by %.2f%%; placement legal\n", (start-final)/start*100)
}
