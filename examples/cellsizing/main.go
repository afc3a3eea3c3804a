// Cell sizing with instant legalization — the gate-sizing scenario from
// the paper's introduction: "in gate sizing, we may want to locally
// legalize the placement after cell size changes."
//
// The example legalizes a benchmark, then upsizes a batch of cells (as a
// timing optimizer would on a critical path) and uses MLL to locally
// re-legalize each one; the placement is legal after every single resize.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mrlegal"
)

func main() {
	b := mrlegal.GenerateBenchmark(mrlegal.BenchmarkSpec{
		Name: "sizing", NumCells: 3000, Density: 0.62, Seed: 7,
	})
	d := b.D
	mrlegal.GlobalPlace(d, b.NL, mrlegal.GlobalPlaceConfig{Seed: 7})

	l, err := mrlegal.NewLegalizer(d, mrlegal.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial placement legal, density %.2f\n", d.Density())

	// Pretend the timer handed us 200 critical cells to upsize by 1-3
	// sites each, and 100 to downsize.
	rng := rand.New(rand.NewSource(3))
	up, upOK, down, downOK := 0, 0, 0, 0
	for i := 0; i < 300; i++ {
		id := mrlegal.CellID(rng.Intn(len(d.Cells)))
		c := d.Cell(id)
		if i < 200 {
			up++
			if l.ResizeCell(id, c.W+1+rng.Intn(3)) == nil {
				upOK++
			}
		} else {
			down++
			if c.W > 1 && l.ResizeCell(id, c.W-1) == nil {
				downOK++
			}
		}
		// The invariant the paper's "instant legalization" buys us: the
		// placement is legal after EVERY operation, so the timer can
		// re-query capacitances at any point.
		if !mrlegal.IsLegal(d, mrlegal.VerifyOptions{RequirePlaced: true, PowerAlignment: true}) {
			log.Fatalf("placement became illegal after operation %d", i)
		}
	}
	fmt.Printf("upsized %d/%d cells, downsized %d/%d cells — placement legal throughout\n",
		upOK, up, downOK, down)

	_, avg := d.TotalDispSites()
	fmt.Printf("average displacement from global placement: %.3f sites\n", avg)
}
