// Benchmarks regenerating the paper's evaluation artifacts (one bench per
// table/figure element; see DESIGN.md's experiment index). Each bench
// legalizes a freshly cloned copy of a pre-prepared benchmark, so b.N
// iterations measure the full legalization flow. Absolute numbers depend
// on this machine; the paper-facing results are produced by cmd/mrbench
// and recorded in EXPERIMENTS.md.
package mrlegal_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/bookshelf"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/detailed"
	"mrlegal/internal/experiments"
	"mrlegal/internal/geom"
	"mrlegal/internal/gp"
	"mrlegal/internal/ilplegal"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/obs"
	"mrlegal/internal/render"
	"mrlegal/internal/segment"
	"mrlegal/internal/tetris"

	ab "mrlegal/internal/abacus"
)

// prep caches prepared (generated + globally placed) benchmarks across
// benches.
var prepCache = map[string]*experiments.Prepared{}

func prepared(b *testing.B, name string, scale int) *experiments.Prepared {
	return prepared2(b, name, scale)
}

func prepared2(b testing.TB, name string, scale int) *experiments.Prepared {
	b.Helper()
	key := fmt.Sprintf("%s/%d", name, scale)
	if p, ok := prepCache[key]; ok {
		return p
	}
	for _, spec := range bengen.Table1Specs(scale) {
		if spec.Name == name {
			p := experiments.Prepare(spec, 0)
			prepCache[key] = p
			return p
		}
	}
	b.Fatalf("unknown benchmark %q", name)
	return nil
}

func legalizeOnce(b *testing.B, p *experiments.Prepared, cfg core.Config) {
	b.Helper()
	res := experiments.RunOne(p, cfg)
	if res.Err != "" {
		b.Fatalf("legalization failed: %s", res.Err)
	}
	b.ReportMetric(res.AvgDisp, "disp-sites/cell")
	b.ReportMetric(res.DeltaHPWL*100, "ΔHPWL-%")
}

// --- Table 1, "Power Line Aligned", Ours column (E1) ---

func BenchmarkTable1AlignedOurs(b *testing.B) {
	for _, name := range []string{"fft_a", "fft_1", "des_perf_b"} {
		b.Run(name, func(b *testing.B) {
			p := prepared(b, name, 400)
			cfg := core.DefaultConfig()
			for i := 0; i < b.N; i++ {
				legalizeOnce(b, p, cfg)
			}
		})
	}
}

// --- Table 1, "Power Line Not Aligned", Ours column (E2) ---

func BenchmarkTable1RelaxedOurs(b *testing.B) {
	for _, name := range []string{"fft_a", "fft_1", "des_perf_b"} {
		b.Run(name, func(b *testing.B) {
			p := prepared(b, name, 400)
			cfg := core.DefaultConfig()
			cfg.PowerAlign = false
			for i := 0; i < b.N; i++ {
				legalizeOnce(b, p, cfg)
			}
		})
	}
}

// --- Table 1, ILP baseline columns (E1+E2; the slow side of the paper's
// 185× runtime ratio) ---

func BenchmarkTable1AlignedILP(b *testing.B) {
	p := prepared(b, "fft_a", 400)
	cfg := core.DefaultConfig()
	cfg.Solver = &ilplegal.Solver{}
	for i := 0; i < b.N; i++ {
		legalizeOnce(b, p, cfg)
	}
}

func BenchmarkTable1RelaxedILP(b *testing.B) {
	p := prepared(b, "fft_a", 400)
	cfg := core.DefaultConfig()
	cfg.PowerAlign = false
	cfg.Solver = &ilplegal.Solver{}
	for i := 0; i < b.N; i++ {
		legalizeOnce(b, p, cfg)
	}
}

// --- §6 relaxation experiment (E3): aligned vs relaxed displacement ---

func BenchmarkRelaxationExperiment(b *testing.B) {
	// Use a mid-size design: on the tiniest roster entries the aligned vs
	// relaxed difference is inside run-to-run noise (see EXPERIMENTS.md E3).
	p := prepared(b, "superblue19", 200)
	aligned := core.DefaultConfig()
	relaxed := core.DefaultConfig()
	relaxed.PowerAlign = false
	for i := 0; i < b.N; i++ {
		ra := experiments.RunOne(p, aligned)
		rr := experiments.RunOne(p, relaxed)
		if ra.Err != "" || rr.Err != "" {
			b.Fatal("legalization failed")
		}
		if ra.AvgDisp > 0 {
			b.ReportMetric((1-rr.AvgDisp/ra.AvgDisp)*100, "disp-reduction-%")
		}
	}
}

// --- Evaluation ablation (E4): §5.2 approximate vs exact ---

func BenchmarkEvalApprox(b *testing.B) {
	p := prepared(b, "fft_1", 400)
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		legalizeOnce(b, p, cfg)
	}
}

func BenchmarkEvalExact(b *testing.B) {
	p := prepared(b, "fft_1", 400)
	cfg := core.DefaultConfig()
	cfg.ExactEval = true
	for i := 0; i < b.N; i++ {
		legalizeOnce(b, p, cfg)
	}
}

// --- Window-size ablation (E5): the paper's Rx=30, Ry=5 choice ---

func BenchmarkWindowSize(b *testing.B) {
	p := prepared(b, "fft_1", 400)
	for _, w := range []struct{ rx, ry int }{{10, 2}, {30, 5}, {50, 8}} {
		b.Run(fmt.Sprintf("Rx%dRy%d", w.rx, w.ry), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Rx, cfg.Ry = w.rx, w.ry
			for i := 0; i < b.N; i++ {
				legalizeOnce(b, p, cfg)
			}
		})
	}
}

// --- Related-work baselines (E6) ---

func BenchmarkBaselineAbacus(b *testing.B) {
	p := prepared(b, "fft_a", 400)
	for i := 0; i < b.N; i++ {
		d := p.Bench.D.Clone()
		if _, err := ab.Legalize(d, ab.Config{PowerAlign: true}); err != nil {
			b.Fatal(err)
		}
		_, avg := d.TotalDispSites()
		b.ReportMetric(avg, "disp-sites/cell")
	}
}

func BenchmarkBaselineGreedy(b *testing.B) {
	p := prepared(b, "fft_a", 400)
	for i := 0; i < b.N; i++ {
		d := p.Bench.D.Clone()
		if err := tetris.Legalize(d, tetris.Config{PowerAlign: true}); err != nil {
			b.Fatal(err)
		}
		_, avg := d.TotalDispSites()
		b.ReportMetric(avg, "disp-sites/cell")
	}
}

// --- MLL primitive micro-benches ---

// longRowGrid legalizes one 200k-cell GenerateSized design once per test
// binary; the framework calls a sub-benchmark several times.
var longRowGrid = sync.OnceValues(func() (*segment.Grid, error) {
	d := bengen.GenerateSized(bengen.SizeSpec{Name: "sized_200k", NumCells: 200_000, Seed: 1})
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return l.G, l.Legalize()
})

// BenchmarkPlacementChecksum digests every cell of a legalized
// GenerateSized design from scratch, as a job report, a session open
// and a checkpoint do; a session frame reads the digest its session
// keeps instead. The 50k-cell design has the eco_stream shape and the
// 200k-cell one the large_200k shape.
func BenchmarkPlacementChecksum(b *testing.B) {
	b.Run("sized_50k", func(b *testing.B) {
		d, err := ecoDesign()
		if err != nil {
			b.Fatal(err)
		}
		benchChecksum(b, d)
	})
	b.Run("sized_200k", func(b *testing.B) {
		g, err := longRowGrid()
		if err != nil {
			b.Fatal(err)
		}
		benchChecksum(b, g.Design())
	})
}

// ecoDesign legalizes one 50k-cell GenerateSized design once per test
// binary.
var ecoDesign = sync.OnceValues(func() (*design.Design, error) {
	d := bengen.GenerateSized(bengen.SizeSpec{Name: "sized_50k", NumCells: 50_000, Seed: 1})
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return d, l.Legalize()
})

var checksumSink uint64

func benchChecksum(b *testing.B, d *design.Design) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink = d.PlacementChecksum()
	}
}

func BenchmarkInsertionPointEnumeration(b *testing.B) {
	p := prepared(b, "fft_1", 200)
	d := p.Bench.D.Clone()
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		b.Fatal(err)
	}
	bb := d.Bounds()
	regions := make([]*core.Region, 0, 16)
	for i := 0; i < 16; i++ {
		x := bb.X + (i*53)%max(1, bb.W-66)
		y := bb.Y + (i*7)%max(1, bb.H-11)
		regions = append(regions, core.ExtractRegion(l.G, geom.Rect{X: x, Y: y, W: 66, H: 11}))
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		r := regions[i%len(regions)]
		r.VisitInsertionPoints(3, 2, nil, func(*core.InsertionPoint) bool {
			n++
			return true
		})
	}
	if n < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkSingleMLLCall(b *testing.B) {
	p := prepared(b, "fft_1", 200)
	base := p.Bench.D.Clone()
	l, err := core.NewLegalizer(base, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 0, len(base.Cells))
	for i := range base.Cells {
		if !base.Cells[i].Fixed {
			ids = append(ids, i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := base.Cells[ids[i%len(ids)]].ID
		c := base.Cell(id)
		// Move each cell a few sites away and back: two MLL invocations.
		if !l.MoveCell(id, float64(c.X+5), float64(c.Y)) {
			continue
		}
	}
}

// BenchmarkSingleMLLCallObserved is BenchmarkSingleMLLCall with the
// observability layer attached (metrics, no trace sink);
// comparing the two quantifies the instrumentation overhead quoted in
// docs/OBSERVABILITY.md.
func BenchmarkSingleMLLCallObserved(b *testing.B) {
	p := prepared(b, "fft_1", 200)
	base := p.Bench.D.Clone()
	cfg := core.DefaultConfig()
	cfg.Obs = obs.New(obs.Options{})
	l, err := core.NewLegalizer(base, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 0, len(base.Cells))
	for i := range base.Cells {
		if !base.Cells[i].Fixed {
			ids = append(ids, i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := base.Cells[ids[i%len(ids)]].ID
		c := base.Cell(id)
		if !l.MoveCell(id, float64(c.X+5), float64(c.Y)) {
			continue
		}
	}
}

// --- Substrate benches ---

// BenchmarkGlobalPlacement places one fixed problem per sub-benchmark, so
// ns/op does not depend on b.N: "small", a 2,000-cell design, and
// matrix_mult_1 at scale 50, one of the jobs_table1 inputs, with the seed
// the Table-1 suite uses. Each iteration places a fresh clone.
func BenchmarkGlobalPlacement(b *testing.B) {
	var mm1 bengen.Spec
	for _, spec := range bengen.Table1Specs(50) {
		if spec.Name == "matrix_mult_1" {
			mm1 = spec
		}
	}
	for _, bc := range []struct {
		name string
		spec bengen.Spec
	}{
		{"small", bengen.Spec{Name: "gp", NumCells: 2000, Density: 0.5, Seed: 9}},
		{"matrix_mult_1_s50", mm1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bench := bengen.Generate(bc.spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := bench.D.Clone()
				gpStats = gp.Place(d, bench.NL, gp.Config{Seed: bc.spec.Seed})
			}
		})
	}
}

// gpStats keeps BenchmarkGlobalPlacement's result live.
var gpStats gp.Stats

func BenchmarkSegmentGridRebuild(b *testing.B) {
	p := prepared(b, "superblue12", 400)
	d := p.Bench.D.Clone()
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := segment.Build(d)
		if err := g.RebuildOccupancy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHPWL(b *testing.B) {
	p := prepared(b, "superblue12", 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Bench.NL.HPWL(p.Bench.D) <= 0 {
			b.Fatal("bad HPWL")
		}
	}
}

// --- Detailed placement application benches (§1 motivation) ---

func BenchmarkDetailedPlaceMedianMoves(b *testing.B) {
	p := prepared(b, "fft_2", 200)
	for i := 0; i < b.N; i++ {
		d := p.Bench.D.Clone()
		l, err := core.NewLegalizer(d, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Legalize(); err != nil {
			b.Fatal(err)
		}
		st := detailed.Optimize(l, p.Bench.NL, detailed.Config{Passes: 2})
		if st.HPWLBefore > 0 {
			b.ReportMetric((st.HPWLBefore-st.HPWLAfter)/st.HPWLBefore*100, "HPWL-gain-%")
		}
	}
}

func BenchmarkDetailedPlaceSwaps(b *testing.B) {
	p := prepared(b, "fft_2", 200)
	for i := 0; i < b.N; i++ {
		d := p.Bench.D.Clone()
		l, err := core.NewLegalizer(d, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Legalize(); err != nil {
			b.Fatal(err)
		}
		detailed.OptimizeSwaps(l, p.Bench.NL, 0)
	}
}

// --- I/O substrate benches ---

// BenchmarkIodesignRoundTrip times the text codec's two halves on one
// design with its netlist; SetBytes makes both report MB/s of text.
func BenchmarkIodesignRoundTrip(b *testing.B) {
	p := prepared(b, "superblue19", 400)
	var text bytes.Buffer
	if err := iodesign.Write(&text, p.Bench.D, p.Bench.NL); err != nil {
		b.Fatal(err)
	}
	b.Run("Write", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := iodesign.Write(&buf, p.Bench.D, p.Bench.NL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Read", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		for i := 0; i < b.N; i++ {
			if _, _, err := iodesign.Read(bytes.NewReader(text.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBookshelfRoundTrip(b *testing.B) {
	p := prepared(b, "superblue19", 400)
	for i := 0; i < b.N; i++ {
		fs := bookshelf.NewMemFS()
		if err := bookshelf.Write(fs, "b", p.Bench.D, p.Bench.NL); err != nil {
			b.Fatal(err)
		}
		if _, _, err := bookshelf.Read(fs, "b.aux"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderSVG(b *testing.B) {
	p := prepared(b, "fft_2", 200)
	d := p.Bench.D.Clone()
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := render.SVG(&buf, d, render.Options{ShowDisplacement: true}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// --- ILP substrate bench ---

func BenchmarkILPLocalProblem(b *testing.B) {
	p := prepared(b, "fft_2", 400)
	d := p.Bench.D.Clone()
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		b.Fatal(err)
	}
	bb := d.Bounds()
	r := core.ExtractRegion(l.G, geom.Rect{X: bb.X + bb.W/3, Y: bb.Y + bb.H/3, W: 66, H: 12})
	sol := &ilplegal.Solver{}
	mi := d.AddMaster(design.Master{Name: "b", Width: 3, Height: 2, BottomRail: design.VSS})
	id := d.AddCell("t", mi, float64(bb.X+bb.W/2), float64(bb.Y+bb.H/2))
	c := d.Cell(id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol.SelectInsertionPoint(r, c, c.GX, c.GY, nil)
	}
}
