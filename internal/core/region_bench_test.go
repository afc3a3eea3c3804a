package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/gp"
	"mrlegal/internal/segment"
)

// BenchmarkRegionExtraction times scratch.extract on one warmed scratch,
// as the driver reuses its scratch from call to call. Each sub-benchmark
// reports its sweep's mean candidates per window (cands/window).
func BenchmarkRegionExtraction(b *testing.B) {
	b.Run("fft_1", func(b *testing.B) { benchExtract(b, fft1Grid(b, 1)) })
	// fft_1's rows are short enough to hide a scan over whole segments;
	// these hold about 550 cells, the shape of the repository
	// benchmark's large_200k workload.
	b.Run("sized_200k", func(b *testing.B) { benchExtract(b, sized200kGrid(b)) })
	// Round 1 of a run extracts while most movable cells are still
	// unplaced: with one in five placed, fft_1's windows hold under 32
	// candidates on average, as a fifth of jobs_table1's extractions do.
	b.Run("fft_1_sparse", func(b *testing.B) { benchExtract(b, fft1Grid(b, 5)) })
}

// BenchmarkSearchBest times the default best-first search, searchBest
// with the approximate evaluator, on the windows benchExtract sweeps.
// ns/op covers extracting each window and searching it; search-ns/op is
// the search alone.
func BenchmarkSearchBest(b *testing.B) {
	b.Run("fft_1", func(b *testing.B) { benchSearch(b, fft1Grid(b, 1)) })
	b.Run("sized_200k", func(b *testing.B) { benchSearch(b, sized200kGrid(b)) })
	b.Run("fft_1_sparse", func(b *testing.B) { benchSearch(b, fft1Grid(b, 5)) })
}

// fft1Grid legalizes the Table-1 fft_1 design at scale 200, keeps one
// movable cell in keepOneIn placed (by cell ID) and returns its grid.
func fft1Grid(b *testing.B, keepOneIn int) *segment.Grid {
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
		if err := l.Legalize(context.Background()); err != nil {
			b.Fatal(err)
		}
		for i := range bench.D.Cells {
			if c := &bench.D.Cells[i]; !c.Fixed && i%keepOneIn != 0 {
				l.G.Remove(c.ID)
				bench.D.Unplace(c.ID)
			}
		}
		return l.G
	}
	b.Fatal("no fft_1 in Table1Specs")
	return nil
}

func sized200kGrid(b *testing.B) *segment.Grid {
	g, err := longRowGrid()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// longRowGrid legalizes one 200k-cell GenerateSized design once per test
// binary; the framework calls a sub-benchmark several times.
var longRowGrid = sync.OnceValues(func() (*segment.Grid, error) {
	d := bengen.GenerateSized(bengen.SizeSpec{Name: "sized_200k", NumCells: 200_000, Seed: 1})
	l, err := NewLegalizer(d, DefaultConfig())
	if err != nil {
		return nil, err
	}
	return l.G, l.Legalize(context.Background())
})

// benchTargetW is the width of the sweep's single-row target.
const benchTargetW = 6

// benchWindow returns the i-th window of the sweep across bb: the
// paper-default window (Rx = 30, Ry = 5) of a benchTargetW-site
// single-row target, with the target's desired position.
func benchWindow(bb geom.Rect, i int) (win geom.Rect, tx, ty float64) {
	x := bb.X + (i*37)%max(1, bb.W-66)
	y := bb.Y + (i*13)%max(1, bb.H-11)
	return geom.Rect{X: x, Y: y, W: 66, H: 11}, float64(x) + 30.25, float64(y) + 5
}

// benchExtract extracts the sweep's windows. A first sweep over 1,000 of
// them, untimed, sizes the scratch's buffers.
func benchExtract(b *testing.B, g *segment.Grid) {
	bb := g.Design().Bounds()
	sc := newScratch()
	extract := func(i int) *Region {
		win, _, _ := benchWindow(bb, i)
		return sc.extract(g, win)
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
	reportCandidates(b, g)
}

// reportCandidates stops the timer and reports the mean number of
// candidates, the movable cells wholly inside the window that extract
// sorts before its fixpoint, over the b.N windows the sweep visited.
func reportCandidates(b *testing.B, g *segment.Grid) {
	b.StopTimer()
	d, bb := g.Design(), g.Design().Bounds()
	var ids []design.CellID
	total := 0
	for i := 0; i < b.N; i++ {
		win, _, _ := benchWindow(bb, i)
		ids = g.CellsIn(win, ids[:0])
		for _, id := range ids {
			if c := d.Cell(id); !c.Fixed && win.Contains(c.Rect()) {
				total++
			}
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "cands/window")
}

// benchSearch runs searchBest for the sweep's target in each of its
// windows, as bestInsertionPoint does: every yielded candidate is
// evaluated and a cheaper one lowers the incumbent. Each window is
// extracted first, and the search is timed by the clock around it with
// the benchmark timer left running: StopTimer and StartTimer each read
// the memory statistics, which stops the world, around a search of a few
// microseconds. A first sweep over 1,000 windows, untimed, sizes the
// scratch's buffers.
func benchSearch(b *testing.B, g *segment.Grid) {
	bb := g.Design().Bounds()
	sc := newScratch()
	evals := 0
	var searching time.Duration
	search := func(i int) {
		win, tx, ty := benchWindow(bb, i)
		r := sc.extract(g, win)
		start := time.Now()
		incumbent := math.Inf(1)
		r.searchBest(benchTargetW, 1, tx, ty, nil, &incumbent, func(ip *InsertionPoint) bool {
			evals++
			if ev := r.evaluateApprox(ip, benchTargetW, tx, ty); ev.OK && ev.Cost < incumbent {
				incumbent = ev.Cost
			}
			return true
		})
		searching += time.Since(start)
	}
	for i := 0; i < 1000; i++ {
		search(i)
	}
	if evals == 0 {
		b.Fatal("the warm-up sweep evaluated no candidate")
	}
	searching = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(i)
	}
	b.ReportMetric(float64(searching.Nanoseconds())/float64(b.N), "search-ns/op")
	reportCandidates(b, g)
}
