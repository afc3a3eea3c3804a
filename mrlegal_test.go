package mrlegal_test

import (
	"context"
	"math/rand"
	"testing"

	"mrlegal"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	d := mrlegal.NewDesign("chip", 200, 2000)
	d.AddUniformRows(16, mrlegal.Span{Lo: 0, Hi: 120})
	inv := d.AddMaster(mrlegal.Master{Name: "INV", Width: 2, Height: 1, BottomRail: mrlegal.VSS})
	ff := d.AddMaster(mrlegal.Master{Name: "DFF", Width: 4, Height: 2, BottomRail: mrlegal.VSS})

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		mi := inv
		if i%10 == 0 {
			mi = ff
		}
		d.AddCell("", mi, rng.Float64()*110, rng.Float64()*14)
	}
	l, err := mrlegal.NewLegalizer(d, mrlegal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !mrlegal.IsLegal(d, mrlegal.VerifyOptions{RequirePlaced: true, PowerAlignment: true}) {
		t.Fatal("not legal")
	}
	if vs := mrlegal.Verify(d, mrlegal.VerifyOptions{RequirePlaced: true}, 0); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestFacadeIncrementalOps(t *testing.T) {
	d := mrlegal.NewDesign("chip", 200, 2000)
	d.AddUniformRows(8, mrlegal.Span{Lo: 0, Hi: 60})
	m := d.AddMaster(mrlegal.Master{Name: "C", Width: 3, Height: 1, BottomRail: mrlegal.VSS})
	var ids []mrlegal.CellID
	for i := 0; i < 20; i++ {
		ids = append(ids, d.AddCell("", m, float64(3*i%50), float64(i%7)))
	}
	l, err := mrlegal.NewLegalizer(d, mrlegal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if l.MoveCell(ids[0], 30, 4) != nil {
		t.Fatal("move failed")
	}
	if l.ResizeCell(ids[1], 5) != nil {
		t.Fatal("resize failed")
	}
	// Insert a new cell into the already-legal design (buffer insertion).
	nb := d.AddCell("buf", m, 25, 3)
	if l.MoveCell(nb, 25, 3) != nil {
		t.Fatal("insert failed")
	}
	if !mrlegal.IsLegal(d, mrlegal.VerifyOptions{RequirePlaced: true, PowerAlignment: true}) {
		t.Fatal("not legal after incremental ops")
	}
}

func TestFacadeBenchmarkAndGP(t *testing.T) {
	b := mrlegal.GenerateBenchmark(mrlegal.BenchmarkSpec{Name: "t", NumCells: 400, Density: 0.5, Seed: 1})
	st := mrlegal.GlobalPlace(b.D, b.NL, mrlegal.GlobalPlaceConfig{Seed: 1})
	if st.MovableCells != 400 {
		t.Fatalf("gp stats %+v", st)
	}
	l, err := mrlegal.NewLegalizer(b.D, mrlegal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !mrlegal.IsLegal(b.D, mrlegal.VerifyOptions{RequirePlaced: true, PowerAlignment: true}) {
		t.Fatal("not legal")
	}
	if len(mrlegal.Table1Specs(100)) != 20 {
		t.Fatal("Table1Specs wrong")
	}
}
