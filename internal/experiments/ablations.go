package experiments

import (
	"fmt"
	"io"
	"time"

	"mrlegal/internal/abacus"
	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/tetris"
)

// EvalAblationRow compares the paper's approximate insertion-point
// evaluation (§5.2) against exact critical-position propagation
// (experiment E4): the paper claims the approximation is "accurate enough
// to choose the near-optimal place".
type EvalAblationRow struct {
	Name          string
	Approx, Exact LegalizeResult
}

// RunEvalAblation runs experiment E4 on the Table-1 roster.
func RunEvalAblation(cfg Table1Config) []EvalAblationRow {
	cfg.defaults()
	var rows []EvalAblationRow
	cfg.roster(func(spec bengen.Spec, p *Prepared) {
		ap := cfg.coreConfig(true, false)
		ex := ap
		ex.ExactEval = true
		row := EvalAblationRow{
			Name:   spec.Name,
			Approx: RunOneCtx(cfg.ctx(), p, ap),
			Exact:  RunOneCtx(cfg.ctx(), p, ex),
		}
		rows = append(rows, row)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-16s approx: disp=%.3f t=%s | exact: disp=%.3f t=%s\n",
				spec.Name, row.Approx.AvgDisp, row.Approx.Runtime.Round(time.Millisecond),
				row.Exact.AvgDisp, row.Exact.Runtime.Round(time.Millisecond))
		}
	})
	return rows
}

// PrintEvalAblation renders experiment E4.
func PrintEvalAblation(w io.Writer, rows []EvalAblationRow) {
	fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %8s\n",
		"Benchmark", "DispApprox", "DispExact", "tApprox", "tExact", "Δdisp")
	var sa, se float64
	var ta, te time.Duration
	for _, r := range rows {
		delta := 0.0
		if r.Exact.AvgDisp > 0 {
			delta = (r.Approx.AvgDisp - r.Exact.AvgDisp) / r.Exact.AvgDisp
		}
		fmt.Fprintf(w, "%-16s %10.3f %10.3f %10s %10s %7.1f%%\n",
			r.Name, r.Approx.AvgDisp, r.Exact.AvgDisp,
			r.Approx.Runtime.Round(time.Millisecond), r.Exact.Runtime.Round(time.Millisecond),
			delta*100)
		sa += r.Approx.AvgDisp
		se += r.Exact.AvgDisp
		ta += r.Approx.Runtime
		te += r.Exact.Runtime
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(w, "%-16s %10.3f %10.3f %10s %10s\n", "Avg.",
			sa/n, se/n, (ta / time.Duration(len(rows))).Round(time.Millisecond),
			(te / time.Duration(len(rows))).Round(time.Millisecond))
	}
}

// WindowRow is one point of the window-size sweep (experiment E5; the
// paper fixes Rx=30, Ry=5 without justification — this sweep shows the
// displacement/runtime trade-off behind that choice). Result.Stats
// counts the MLL failures that retries resolved.
type WindowRow struct {
	Rx, Ry int
	Result LegalizeResult
}

// RunWindowSweep runs experiment E5 on one benchmark; nil when the roster
// has no benchmark of that name.
func RunWindowSweep(cfg Table1Config, name string, rxs, rys []int) []WindowRow {
	cfg.defaults()
	cfg.Only = []string{name}
	var rows []WindowRow
	cfg.roster(func(_ bengen.Spec, p *Prepared) {
		for _, rx := range rxs {
			for _, ry := range rys {
				c := cfg.coreConfig(true, false)
				c.Rx, c.Ry = rx, ry
				res := RunOneCtx(cfg.ctx(), p, c)
				rows = append(rows, WindowRow{Rx: rx, Ry: ry, Result: res})
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "Rx=%-3d Ry=%-2d disp=%.3f ΔHPWL=%.2f%% t=%s fails=%d\n",
						rx, ry, res.AvgDisp, res.DeltaHPWL*100, res.Runtime.Round(time.Millisecond), res.Stats.MLLFailures)
				}
			}
		}
	})
	return rows
}

// PrintWindowSweep renders experiment E5.
func PrintWindowSweep(w io.Writer, name string, rows []WindowRow) {
	fmt.Fprintf(w, "Window sweep on %s (paper default Rx=30 Ry=5):\n", name)
	fmt.Fprintf(w, "%4s %4s %10s %10s %10s %8s\n", "Rx", "Ry", "Disp", "ΔHPWL", "Runtime", "Fails")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %4d %10.3f %9.2f%% %10s %8d\n",
			r.Rx, r.Ry, r.Result.AvgDisp, r.Result.DeltaHPWL*100,
			r.Result.Runtime.Round(time.Millisecond), r.Result.Stats.MLLFailures)
	}
}

// BaselineRow compares MLL against the related-work baselines the paper
// discusses in §1 (experiment E6): Abacus with frozen multi-row cells and
// the greedy (Tetris-style) legalizer.
type BaselineRow struct {
	Name                string
	MLL, Abacus, Greedy LegalizeResult
}

// RunBaselines runs experiment E6.
func RunBaselines(cfg Table1Config) []BaselineRow {
	cfg.defaults()
	var rows []BaselineRow
	cfg.roster(func(spec bengen.Spec, p *Prepared) {
		row := BaselineRow{Name: spec.Name}
		row.MLL = RunOneCtx(cfg.ctx(), p, cfg.coreConfig(true, false))

		measure := func(run func(d *design.Design) error) LegalizeResult {
			d := p.Bench.D.Clone()
			start := time.Now()
			err := run(d)
			res := LegalizeResult{Runtime: time.Since(start)}
			p.score(&res, d, true, err)
			return res
		}
		row.Abacus = measure(func(d *design.Design) error {
			_, err := abacus.Legalize(d, abacus.Config{PowerAlign: true})
			return err
		})
		row.Greedy = measure(func(d *design.Design) error {
			return tetris.Legalize(d, tetris.Config{PowerAlign: true})
		})
		rows = append(rows, row)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-16s MLL: %.3f | Abacus: %.3f (%s) | Greedy: %.3f (%s)\n",
				spec.Name, row.MLL.AvgDisp, row.Abacus.AvgDisp, row.Abacus.Err, row.Greedy.AvgDisp, row.Greedy.Err)
		}
	})
	return rows
}

// PrintBaselines renders experiment E6.
func PrintBaselines(w io.Writer, rows []BaselineRow) {
	fmt.Fprintf(w, "%-16s | %9s %9s | %9s %9s | %9s %9s\n",
		"Benchmark", "MLL.disp", "MLL.t", "Aba.disp", "Aba.t", "Grd.disp", "Grd.t")
	cell := func(r LegalizeResult) (string, string) {
		if r.Err != "" {
			return "fail", "-"
		}
		return fmt.Sprintf("%.3f", r.AvgDisp), fmt.Sprintf("%.2fs", r.Runtime.Seconds())
	}
	for _, r := range rows {
		m1, m2 := cell(r.MLL)
		a1, a2 := cell(r.Abacus)
		g1, g2 := cell(r.Greedy)
		fmt.Fprintf(w, "%-16s | %9s %9s | %9s %9s | %9s %9s\n", r.Name, m1, m2, a1, a2, g1, g2)
	}
}

// HeightMixRow stresses heights beyond the paper's double-height roster
// (experiment E7, an extension): the paper's formulation supports any
// height — odd heights fit every row via flipping, even heights alternate
// rows — so the legalizer must too.
type HeightMixRow struct {
	MaxHeight int
	Result    LegalizeResult
}

// RunHeightMix runs experiment E7 on synthetic designs with increasingly
// tall cell mixes.
func RunHeightMix(cfg Table1Config) []HeightMixRow {
	cfg.defaults()
	base := bengen.Spec{Name: "heightmix", NumCells: 30000 / cfg.Scale * 10, Density: 0.55}
	if base.NumCells < 500 {
		base.NumCells = 500
	}
	mixes := []struct {
		maxH   int
		triple float64
		quad   float64
	}{
		{2, 0, 0},
		{3, 0.05, 0},
		{4, 0.05, 0.03},
	}
	var rows []HeightMixRow
	for i, m := range mixes {
		spec := base
		spec.Seed = int64(77+i) + cfg.Seed
		spec.TripleFrac = m.triple
		spec.QuadFrac = m.quad
		p := Prepare(spec, cfg.Seed)
		res := RunOneCtx(cfg.ctx(), p, cfg.coreConfig(true, false))
		rows = append(rows, HeightMixRow{MaxHeight: m.maxH, Result: res})
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "maxH=%d disp=%.3f ΔHPWL=%.2f%% t=%s err=%q\n",
				m.maxH, res.AvgDisp, res.DeltaHPWL*100, res.Runtime.Round(time.Millisecond), res.Err)
		}
	}
	return rows
}

// PrintHeightMix renders experiment E7.
func PrintHeightMix(w io.Writer, rows []HeightMixRow) {
	fmt.Fprintf(w, "Height-mix stress (E7): single+double → +triple → +quad\n")
	fmt.Fprintf(w, "%9s %10s %10s %10s %6s\n", "MaxHeight", "Disp", "ΔHPWL", "Runtime", "Legal")
	for _, r := range rows {
		fmt.Fprintf(w, "%9d %10.3f %9.2f%% %10s %6v\n",
			r.MaxHeight, r.Result.AvgDisp, r.Result.DeltaHPWL*100,
			r.Result.Runtime.Round(time.Millisecond), r.Result.Legal)
	}
}

// OrderRow compares cell-placement orderings in Algorithm 1 (experiment
// E8, an extension): the paper places cells "in an arbitrary order"; on
// dense designs the order decides whether rail-constrained multi-row
// cells still find parity-compatible space.
type OrderRow struct {
	Name                  string
	TallFirst, InputOrder LegalizeResult
}

// RunOrderAblation runs experiment E8.
func RunOrderAblation(cfg Table1Config) []OrderRow {
	cfg.defaults()
	var rows []OrderRow
	cfg.roster(func(spec bengen.Spec, p *Prepared) {
		tall := cfg.coreConfig(true, false)
		input := tall
		input.TallFirst = false
		row := OrderRow{Name: spec.Name, TallFirst: RunOneCtx(cfg.ctx(), p, tall), InputOrder: RunOneCtx(cfg.ctx(), p, input)}
		rows = append(rows, row)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-16s tall-first: disp=%.3f err=%q | input-order: disp=%.3f err=%q\n",
				spec.Name, row.TallFirst.AvgDisp, row.TallFirst.Err, row.InputOrder.AvgDisp, row.InputOrder.Err)
		}
	})
	return rows
}

// PrintOrderAblation renders experiment E8.
func PrintOrderAblation(w io.Writer, rows []OrderRow) {
	fmt.Fprintf(w, "%-16s %12s %12s\n", "Benchmark", "TallFirst", "InputOrder")
	val := func(r LegalizeResult) string {
		if r.Err != "" {
			return "FAIL"
		}
		return fmt.Sprintf("%.3f", r.AvgDisp)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12s %12s\n", r.Name, val(r.TallFirst), val(r.InputOrder))
	}
}

// ScalingRow records legalization runtime versus design size (experiment
// E9): the paper's largest benchmark (1.17M cells) legalizes in under two
// minutes, i.e. runtime grows near-linearly with cell count. We sweep one
// roster design across downscale factors.
type ScalingRow struct {
	Cells  int
	Result LegalizeResult
}

// RunScaling runs experiment E9 on the named benchmark.
func RunScaling(cfg Table1Config, name string, scales []int) []ScalingRow {
	cfg.defaults()
	cfg.Only = []string{name}
	var rows []ScalingRow
	for _, sc := range scales {
		cfg.Scale = sc
		cfg.roster(func(spec bengen.Spec, p *Prepared) {
			res := RunOneCtx(cfg.ctx(), p, cfg.coreConfig(true, false))
			rows = append(rows, ScalingRow{Cells: spec.NumCells, Result: res})
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "scale=%d cells=%d t=%s disp=%.3f err=%q\n",
					sc, spec.NumCells, res.Runtime.Round(time.Millisecond), res.AvgDisp, res.Err)
			}
		})
	}
	return rows
}

// PrintScaling renders experiment E9 with per-cell normalization.
func PrintScaling(w io.Writer, name string, rows []ScalingRow) {
	fmt.Fprintf(w, "Runtime scaling on %s (paper: 1.17M cells in <2 min):\n", name)
	fmt.Fprintf(w, "%10s %12s %14s %10s\n", "Cells", "Runtime", "µs/cell", "Disp")
	for _, r := range rows {
		perCell := float64(r.Result.Runtime.Microseconds()) / float64(r.Cells)
		fmt.Fprintf(w, "%10d %12s %14.1f %10.3f\n",
			r.Cells, r.Result.Runtime.Round(time.Millisecond), perCell, r.Result.AvgDisp)
	}
}

// SearchAblationRow compares the best-first insertion-point search, the
// default, with the exhaustive sweep it must agree with (experiment E10):
// the same Table-1 run with and without Config.ExhaustiveSearch.
type SearchAblationRow struct {
	Name                  string
	Cells                 int
	BestFirst, Exhaustive LegalizeResult
}

// same reports whether both runs succeeded with identical placements.
func (r *SearchAblationRow) same() bool {
	return r.BestFirst.Err == "" && r.Exhaustive.Err == "" &&
		r.BestFirst.Checksum == r.Exhaustive.Checksum
}

// RunSearchAblation runs experiment E10 on the Table-1 roster.
func RunSearchAblation(cfg Table1Config) []SearchAblationRow {
	cfg.defaults()
	var rows []SearchAblationRow
	cfg.roster(func(spec bengen.Spec, p *Prepared) {
		bf := cfg.coreConfig(true, false)
		ex := bf
		ex.ExhaustiveSearch = true
		row := SearchAblationRow{
			Name:       spec.Name,
			Cells:      len(p.Bench.D.Cells),
			BestFirst:  RunOneCtx(cfg.ctx(), p, bf),
			Exhaustive: RunOneCtx(cfg.ctx(), p, ex),
		}
		rows = append(rows, row)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-16s evaluated %d -> %d  t %s -> %s  same=%v\n",
				spec.Name, row.Exhaustive.Stats.InsertionPoints, row.BestFirst.Stats.InsertionPoints,
				row.Exhaustive.Runtime.Round(time.Millisecond), row.BestFirst.Runtime.Round(time.Millisecond),
				row.same())
		}
	})
	return rows
}

// PrintSearchAblation renders experiment E10: insertion points evaluated
// per MLL call in each mode, the reduction, both wall times, and whether
// the placements are identical.
func PrintSearchAblation(w io.Writer, rows []SearchAblationRow) {
	fmt.Fprintf(w, "Best-first search vs exhaustive sweep:\n")
	fmt.Fprintf(w, "%-16s %7s %11s %11s %9s %9s %8s %5s\n",
		"Benchmark", "Cells", "eval/call_x", "eval/call_b", "reduction", "t_exh", "t_bf", "same")
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perCall := func(s core.Stats) float64 { return ratio(float64(s.InsertionPoints), float64(s.MLLCalls)) }
	var evalEx, evalBF int64
	var tEx, tBF time.Duration
	allSame := true
	for i := range rows {
		r := &rows[i]
		ex, bf := r.Exhaustive.Stats.InsertionPoints, r.BestFirst.Stats.InsertionPoints
		fmt.Fprintf(w, "%-16s %7d %11.1f %11.1f %8.1fx %8.3fs %7.3fs %5v\n",
			r.Name, r.Cells, perCall(r.Exhaustive.Stats), perCall(r.BestFirst.Stats),
			ratio(float64(ex), float64(bf)), r.Exhaustive.Runtime.Seconds(), r.BestFirst.Runtime.Seconds(), r.same())
		evalEx += ex
		evalBF += bf
		tEx += r.Exhaustive.Runtime
		tBF += r.BestFirst.Runtime
		allSame = allSame && r.same()
	}
	fmt.Fprintf(w, "Total: %.1fx fewer evaluations, %.2fx wall speedup, identical=%v\n",
		ratio(float64(evalEx), float64(evalBF)), ratio(tEx.Seconds(), tBF.Seconds()), allSame)
}
