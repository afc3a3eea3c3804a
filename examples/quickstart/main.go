// Quickstart: build a small design by hand, legalize it, and inspect the
// result. This is the 60-second tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mrlegal"
)

func main() {
	// A die with 32 rows of 200 sites each. Site = 0.2µm × 2.0µm.
	d := mrlegal.NewDesign("quickstart", 200, 2000)
	d.AddUniformRows(32, mrlegal.Span{Lo: 0, Hi: 200})

	// A tiny library: an inverter, a NAND and a double-height flip-flop.
	inv := d.AddMaster(mrlegal.Master{Name: "INV_X1", Width: 2, Height: 1, BottomRail: mrlegal.VSS})
	nand := d.AddMaster(mrlegal.Master{Name: "NAND2_X1", Width: 3, Height: 1, BottomRail: mrlegal.VSS})
	dff := d.AddMaster(mrlegal.Master{Name: "DFF_X1", Width: 4, Height: 2, BottomRail: mrlegal.VSS})

	// Scatter 600 cells with fractional "global placement" positions.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 600; i++ {
		mi := inv
		switch {
		case i%10 == 0:
			mi = dff
		case i%3 == 0:
			mi = nand
		}
		gx := rng.Float64() * 195
		gy := rng.Float64() * 30
		d.AddCell(fmt.Sprintf("u%d", i), mi, gx, gy)
	}
	fmt.Printf("design %q: %d cells, density %.2f\n", d.Name, len(d.Cells), d.Density())

	// Legalize with the paper's defaults (Rx=30, Ry=5, rails aligned).
	l, err := mrlegal.NewLegalizer(d, mrlegal.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		log.Fatal(err)
	}

	// Every cell now sits on a site, inside rows, overlap-free, with
	// even-height cells on rail-compatible rows.
	if !mrlegal.IsLegal(d, mrlegal.VerifyOptions{RequirePlaced: true, PowerAlignment: true}) {
		log.Fatal("verification failed")
	}
	total, avg := d.TotalDispSites()
	st := l.Stats()
	fmt.Printf("legalized: total displacement %.1f sites, average %.3f sites/cell\n", total, avg)
	fmt.Printf("stats: %d direct placements, %d MLL calls, %d insertion points evaluated\n",
		st.DirectPlacements, st.MLLCalls, st.InsertionPoints)

	c := d.Cell(0)
	fmt.Printf("cell %s: master %s at site (%d, row %d), orientation %v\n",
		c.Name, d.Lib[c.Master].Name, c.X, c.Y, c.Orient)
}
