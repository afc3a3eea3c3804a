package core

import (
	"sync"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/geom"
	"mrlegal/internal/gp"
	"mrlegal/internal/segment"
)

// BenchmarkRegionExtraction times scratch.extract on one warmed scratch,
// as the driver reuses its scratch from call to call.
func BenchmarkRegionExtraction(b *testing.B) {
	b.Run("fft_1", func(b *testing.B) {
		for _, spec := range bengen.Table1Specs(200) {
			if spec.Name != "fft_1" {
				continue
			}
			bench := bengen.Generate(spec)
			gp.Place(bench.D, bench.NL, gp.Config{Seed: spec.Seed})
			l, err := NewLegalizer(bench.D, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := l.Legalize(); err != nil {
				b.Fatal(err)
			}
			benchExtract(b, l.G)
		}
	})
	// fft_1's rows are short enough to hide a scan over whole segments;
	// these hold about 550 cells, the shape of the repository
	// benchmark's large_200k workload.
	b.Run("sized_200k", func(b *testing.B) {
		g, err := longRowGrid()
		if err != nil {
			b.Fatal(err)
		}
		benchExtract(b, g)
	})
}

// longRowGrid legalizes one 200k-cell GenerateSized design once per test
// binary; the framework calls a sub-benchmark several times.
var longRowGrid = sync.OnceValues(func() (*segment.Grid, error) {
	d := bengen.GenerateSized(bengen.SizeSpec{Name: "sized_200k", NumCells: 200_000, Seed: 1})
	l, err := NewLegalizer(d, DefaultConfig())
	if err != nil {
		return nil, err
	}
	return l.G, l.Legalize()
})

// benchExtract extracts the paper-default window (Rx = 30, Ry = 5) of a
// 6-site single-row target at positions swept across the die. A first
// sweep over 1,000 of those windows, untimed, sizes the scratch's
// buffers.
func benchExtract(b *testing.B, g *segment.Grid) {
	bb := g.Design().Bounds()
	sc := newScratch()
	extract := func(i int) *Region {
		x := bb.X + (i*37)%max(1, bb.W-66)
		y := bb.Y + (i*13)%max(1, bb.H-11)
		return sc.extract(g, geom.Rect{X: x, Y: y, W: 66, H: 11})
	}
	for i := 0; i < 1000; i++ {
		extract(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if extract(i).NumLocalCells() < 0 {
			b.Fatal("impossible")
		}
	}
}
