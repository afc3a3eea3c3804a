// Buffer insertion with instant legalization — the second incremental
// scenario from the paper's introduction: "In buffer insertion, we may
// want to legalize the solution locally to remove overlapping induced by
// the newly inserted buffer."
//
// The example finds the longest nets of a legalized benchmark, inserts a
// buffer at each net's center of gravity through an incremental (ECO)
// session — each insertion is one atomic delta batch that relegalizes
// only the perturbed neighborhood — and then legalizes the same buffers
// from scratch on a clone along the full-relegalization path. What it
// checks is legality: both placements must verify legal. It also calls
// the session's fixed-point oracle, which holds by construction (a full
// pass places only unplaced cells, and a session leaves none); which
// legal placement a session batch produces is pinned by
// internal/experiments' golden_sessions.txt, not here.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"

	"mrlegal"
)

func main() {
	b := mrlegal.GenerateBenchmark(mrlegal.BenchmarkSpec{
		Name: "bufins", NumCells: 3000, Density: 0.68, Seed: 11,
	})
	d, nl := b.D, b.NL
	mrlegal.GlobalPlace(d, nl, mrlegal.GlobalPlaceConfig{Seed: 11})

	l, err := mrlegal.NewLegalizer(d, mrlegal.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		log.Fatal(err)
	}
	hpwl0 := nl.HPWL(d)

	// The full-path clone: the same legal placement, before any buffer
	// exists. The parity check at the end re-legalizes it from scratch
	// with the identical buffer set.
	fullPath := d.Clone()

	// Rank nets by HPWL and pick the 50 longest for buffering.
	type scored struct {
		net  int
		hpwl float64
	}
	var nets []scored
	for ni := range nl.Nets {
		nets = append(nets, scored{ni, nl.NetHPWL(d, ni)})
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i].hpwl > nets[j].hpwl })

	buf := d.AddMaster(mrlegal.Master{Name: "BUF_X4", Width: 3, Height: 1, BottomRail: mrlegal.VSS})

	// An ECO session over the legalized design: every insertion is one
	// delta batch — atomic, locally relegalized, verified afterwards.
	ses, err := mrlegal.NewSession(l)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	type placedBuf struct {
		name   string
		cx, cy float64
	}
	var placed []placedBuf
	inserted, failed := 0, 0
	for _, s := range nets[:50] {
		// Buffer at the net's center of gravity.
		var cx, cy float64
		n := &nl.Nets[s.net]
		for _, p := range n.Pins {
			if p.Cell == mrlegal.NoCell {
				continue
			}
			c := d.Cell(p.Cell)
			cx += float64(c.X) + p.DX
			cy += float64(c.Y) + p.DY
		}
		cx /= float64(len(n.Pins))
		cy /= float64(len(n.Pins))

		name := fmt.Sprintf("buf_%d", s.net)
		rep, err := ses.ApplyDelta(ctx, []mrlegal.Delta{{
			Op: mrlegal.DeltaInsert, Master: buf, TX: cx, TY: cy, Name: name,
		}})
		if err != nil {
			// The batch rolled back: the design is exactly as before this
			// buffer — skip it and keep going.
			failed++
			continue
		}
		inserted++
		res := rep.Results[0]
		placed = append(placed, placedBuf{name: name, cx: cx, cy: cy})
		dist := math.Abs(float64(res.X)-cx) + math.Abs(float64(res.Y)-cy)*10
		if dist > 60 {
			fmt.Printf("  note: buffer %s landed %.1f sites from its ideal spot (dense region)\n", name, dist)
		}
		// Stitch the buffer into the net so HPWL accounting sees it.
		n.Pins = append(n.Pins, mrlegal.Pin{Cell: res.Cell, DX: 1.5, DY: 0.5})
	}
	if !mrlegal.IsLegal(d, mrlegal.VerifyOptions{RequirePlaced: true, PowerAlignment: true}) {
		log.Fatal("placement became illegal")
	}

	// Parity check 1 — the fixed-point oracle. A full legalization pass
	// places only unplaced cells and the session leaves none, so this
	// holds by construction; the legality check above is the one that
	// can fail.
	fixed, err := ses.FixedPoint(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if !fixed {
		log.Fatal("fixed-point oracle failed: full legalization moved cells the session left behind")
	}

	// Parity check 2 — the full path: the identical buffer set added to
	// the pre-insertion clone and legalized from scratch must also land
	// legally. The session path reaches the same contract while touching
	// only each buffer's neighborhood.
	fullBuf := fullPath.AddMaster(mrlegal.Master{Name: "BUF_X4", Width: 3, Height: 1, BottomRail: mrlegal.VSS})
	for _, pb := range placed {
		fullPath.AddCell(pb.name, fullBuf, pb.cx, pb.cy)
	}
	fullPath.ResetPlacement()
	fl, err := mrlegal.NewLegalizer(fullPath, mrlegal.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := fl.Legalize(); err != nil {
		log.Fatalf("full-relegalization path failed: %v", err)
	}
	if !mrlegal.IsLegal(fullPath, mrlegal.VerifyOptions{RequirePlaced: true, PowerAlignment: true}) {
		log.Fatal("full-relegalization path is illegal")
	}

	stats := ses.Stats()
	fmt.Printf("inserted %d/%d buffers (%d failed); placement legal, fixed-point holds, full path legal\n",
		inserted, inserted+failed, failed)
	fmt.Printf("session: %d batches, %d deltas, %d dirty cells\n",
		stats.Batches, stats.Deltas, stats.DirtyCells)
	fmt.Printf("HPWL before %.4g, after %.4g (buffers add pins, so a small increase is expected)\n",
		hpwl0, nl.HPWL(d))
}
