// Package experiments regenerates the paper's evaluation artifacts:
// Table 1 (MLL vs. the ILP baseline under both power-alignment modes on
// the 20 ISPD-2015-shaped benchmarks), the §6 relaxation comparison, and
// the ablations called out in DESIGN.md (approximate vs. exact insertion
// point evaluation, window-size sweep, related-work baselines, best-first
// vs. exhaustive search). Every MLL run goes through RunOneCtx.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/gp"
	"mrlegal/internal/ilplegal"
	"mrlegal/internal/netlist"
	"mrlegal/internal/obs"
	"mrlegal/internal/verify"
)

// LegalizeResult captures the three Table-1 metrics for one run.
type LegalizeResult struct {
	AvgDisp   float64       // average cell displacement, in site widths
	DeltaHPWL float64       // (HPWL_after − HPWL_GP)/HPWL_GP
	Runtime   time.Duration // legalization wall time
	Legal     bool          // verified against §2 constraints
	Err       string        // non-empty when legalization failed

	// Stats and Checksum (design.PlacementChecksum) are read after the
	// timed region of an MLL run, failed or not; zero for other
	// legalizers.
	Stats    core.Stats
	Checksum uint64
}

// ModeResult pairs the ILP baseline and our MLL legalizer for one
// power-alignment mode.
type ModeResult struct {
	ILP  LegalizeResult
	Ours LegalizeResult
}

// Table1Row is one benchmark row of Table 1.
type Table1Row struct {
	Name    string
	SCells  int
	DCells  int
	Density float64
	GPHPWL  float64 // metres, like the paper's "GP HPWL(m)" column

	Aligned ModeResult // power line aligned
	Relaxed ModeResult // power line not aligned
}

// Table1Config controls a Table-1 run.
type Table1Config struct {
	Scale    int      // benchmark downscale factor (see bengen.Table1Specs)
	SkipILP  bool     // skip the ILP baseline (it is the slow column)
	Only     []string // restrict to these benchmark names (nil = all)
	Progress io.Writer

	// ILPMaxNodes bounds branch & bound per local MILP (0 = solver default).
	ILPMaxNodes int
	// Rx, Ry override the window size (0 keeps core.DefaultConfig's).
	Rx, Ry int
	// Seed offsets all generator/placer seeds for sensitivity runs.
	Seed int64

	// Obs, when non-nil, attaches the observability layer to every
	// legalizer the experiment constructs: metrics accumulate across all
	// runs in one registry (cmd/mrbench dumps the exposition once at the
	// end) and cell events stream to any configured trace sink. Nil keeps
	// the runs on the allocation-free fast path.
	Obs *obs.Observer

	// Ctx, when non-nil, cancels in-flight legalization runs: cmd/mrbench
	// wires a signal context here so SIGINT/SIGTERM unwinds the current
	// run cleanly (profiles and traces flush) instead of killing the
	// process mid-experiment. Nil means context.Background().
	Ctx context.Context
}

// ctx returns the run context (Background when unset).
func (c *Table1Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c *Table1Config) defaults() {
	if c.Scale == 0 {
		c.Scale = 200
	}
}

// Prepared is a generated-and-globally-placed benchmark ready for
// legalization runs.
type Prepared struct {
	Bench  *bengen.Benchmark
	GPHPWL float64 // database units
	Stats  design.Stats
}

// Prepare generates a benchmark and runs the global placer on it.
func Prepare(spec bengen.Spec, seed int64) *Prepared {
	b := bengen.Generate(spec)
	st := gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed + seed})
	return &Prepared{Bench: b, GPHPWL: st.HPWL, Stats: b.D.CellStats()}
}

// RunOne legalizes a fresh clone of the prepared benchmark with the given
// configuration and measures the Table-1 metrics.
func RunOne(p *Prepared, cfg core.Config) LegalizeResult {
	return RunOneCtx(context.Background(), p, cfg)
}

// RunOneCtx is RunOne under a cancelable context: canceling ctx unwinds
// the run at the next placement boundary and reports it as a failed
// result rather than a partial placement.
func RunOneCtx(ctx context.Context, p *Prepared, cfg core.Config) LegalizeResult {
	d := p.Bench.D.Clone()
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		return LegalizeResult{Err: err.Error()}
	}
	start := time.Now()
	lerr := l.LegalizeCtx(ctx)
	elapsed := time.Since(start)

	res := LegalizeResult{Runtime: elapsed, Stats: l.Stats(), Checksum: d.PlacementChecksum()}
	p.score(&res, d, cfg.PowerAlign, lerr)
	return res
}

// score fills res's Table-1 metrics for d, a legalized clone of p's
// design, or its Err when the legalizer returned err or d fails
// verification.
func (p *Prepared) score(res *LegalizeResult, d *design.Design, powerAlign bool, err error) {
	if err != nil {
		res.Err = err.Error()
		return
	}
	_, res.AvgDisp = d.TotalDispSites()
	res.DeltaHPWL = netlist.HPWLDelta(p.GPHPWL, p.Bench.NL.HPWL(d))
	res.Legal = verify.Legal(d, verify.Options{RequirePlaced: true, PowerAlignment: powerAlign})
	if !res.Legal {
		res.Err = "verification failed"
	}
}

// coreConfig builds the legalizer configuration for one Table-1 cell.
func (c *Table1Config) coreConfig(align, useILP bool) core.Config {
	cfg := core.DefaultConfig()
	if c.Rx != 0 {
		cfg.Rx = c.Rx
	}
	if c.Ry != 0 {
		cfg.Ry = c.Ry
	}
	cfg.PowerAlign = align
	cfg.Seed = 1 + c.Seed
	cfg.Obs = c.Obs
	if useILP {
		cfg.Solver = &ilplegal.Solver{MaxNodes: c.ILPMaxNodes}
	}
	return cfg
}

// roster prepares each Table-1 benchmark at c.Scale that c.Only selects,
// its seeds offset by c.Seed, and hands it to f in roster order. Every
// roster experiment shares this loop, so their rows line up.
func (c *Table1Config) roster(f func(spec bengen.Spec, p *Prepared)) {
	for _, spec := range bengen.Table1Specs(c.Scale) {
		if len(c.Only) > 0 && !slices.Contains(c.Only, spec.Name) {
			continue
		}
		spec.Seed += c.Seed
		f(spec, Prepare(spec, c.Seed))
	}
}

// RunTable1 regenerates Table 1 (experiments E1 + E2 of DESIGN.md).
func RunTable1(cfg Table1Config) []Table1Row {
	cfg.defaults()
	var rows []Table1Row
	cfg.roster(func(spec bengen.Spec, p *Prepared) {
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "== %s (%d cells, density %.2f)\n", spec.Name, spec.NumCells, spec.Density)
		}
		row := Table1Row{
			Name:    spec.Name,
			SCells:  p.Stats.SingleRow,
			DCells:  p.Stats.MultiRow,
			Density: p.Bench.D.Density(),
			GPHPWL:  p.GPHPWL * 1e-9, // DBU (nm) → metres
		}
		run := func(align, useILP bool) LegalizeResult {
			r := RunOneCtx(cfg.ctx(), p, cfg.coreConfig(align, useILP))
			if cfg.Progress != nil {
				mode := "relaxed"
				if align {
					mode = "aligned"
				}
				algo := "ours"
				if useILP {
					algo = "ilp "
				}
				fmt.Fprintf(cfg.Progress, "   %s/%s: disp=%.3f ΔHPWL=%.2f%% t=%s err=%q\n",
					mode, algo, r.AvgDisp, r.DeltaHPWL*100, r.Runtime.Round(time.Millisecond), r.Err)
			}
			return r
		}
		row.Aligned.Ours = run(true, false)
		row.Relaxed.Ours = run(false, false)
		if !cfg.SkipILP {
			row.Aligned.ILP = run(true, true)
			row.Relaxed.ILP = run(false, true)
		}
		rows = append(rows, row)
	})
	return rows
}

// Averages summarizes a Table-1 column set, mirroring the paper's "Avg."
// row.
type Averages struct {
	Disp      float64
	DeltaHPWL float64
	Runtime   time.Duration
	N         int
}

func average(rows []Table1Row, pick func(*Table1Row) *LegalizeResult) Averages {
	var a Averages
	var rt time.Duration
	for i := range rows {
		r := pick(&rows[i])
		if r.Err != "" && !r.Legal {
			continue
		}
		a.Disp += r.AvgDisp
		a.DeltaHPWL += r.DeltaHPWL
		rt += r.Runtime
		a.N++
	}
	if a.N > 0 {
		a.Disp /= float64(a.N)
		a.DeltaHPWL /= float64(a.N)
		a.Runtime = rt / time.Duration(a.N)
	}
	return a
}

// Summary computes the paper's four averaged column groups.
type Summary struct {
	AlignedILP, AlignedOurs, RelaxedILP, RelaxedOurs Averages
}

// Summarize computes the averages over rows.
func Summarize(rows []Table1Row) Summary {
	return Summary{
		AlignedILP:  average(rows, func(r *Table1Row) *LegalizeResult { return &r.Aligned.ILP }),
		AlignedOurs: average(rows, func(r *Table1Row) *LegalizeResult { return &r.Aligned.Ours }),
		RelaxedILP:  average(rows, func(r *Table1Row) *LegalizeResult { return &r.Relaxed.ILP }),
		RelaxedOurs: average(rows, func(r *Table1Row) *LegalizeResult { return &r.Relaxed.Ours }),
	}
}

// PrintTable1 renders rows in the layout of the paper's Table 1.
func PrintTable1(w io.Writer, rows []Table1Row, skipILP bool) {
	fmt.Fprintf(w, "%-16s %8s %7s %7s %9s | %7s %7s %8s %8s %8s %8s | %7s %7s %8s %8s %8s %8s\n",
		"Benchmark", "#S.Cell", "#D.Cell", "Density", "GP HPWL(m)",
		"A.DispI", "A.DispO", "A.ΔWL_I", "A.ΔWL_O", "A.t_I", "A.t_O",
		"R.DispI", "R.DispO", "R.ΔWL_I", "R.ΔWL_O", "R.t_I", "R.t_O")
	secs := func(r LegalizeResult) string {
		if r.Err != "" && !r.Legal {
			return "-"
		}
		return fmt.Sprintf("%.2f", r.Runtime.Seconds())
	}
	val := func(r LegalizeResult, f float64, pct bool) string {
		if r.Err != "" && !r.Legal {
			return "-"
		}
		if pct {
			return fmt.Sprintf("%.2f%%", f*100)
		}
		return fmt.Sprintf("%.2f", f)
	}
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(w, "%-16s %8d %7d %7.2f %9.4f | %7s %7s %8s %8s %8s %8s | %7s %7s %8s %8s %8s %8s\n",
			r.Name, r.SCells, r.DCells, r.Density, r.GPHPWL,
			val(r.Aligned.ILP, r.Aligned.ILP.AvgDisp, false),
			val(r.Aligned.Ours, r.Aligned.Ours.AvgDisp, false),
			val(r.Aligned.ILP, r.Aligned.ILP.DeltaHPWL, true),
			val(r.Aligned.Ours, r.Aligned.Ours.DeltaHPWL, true),
			secs(r.Aligned.ILP), secs(r.Aligned.Ours),
			val(r.Relaxed.ILP, r.Relaxed.ILP.AvgDisp, false),
			val(r.Relaxed.Ours, r.Relaxed.Ours.AvgDisp, false),
			val(r.Relaxed.ILP, r.Relaxed.ILP.DeltaHPWL, true),
			val(r.Relaxed.Ours, r.Relaxed.Ours.DeltaHPWL, true),
			secs(r.Relaxed.ILP), secs(r.Relaxed.Ours))
	}
	s := Summarize(rows)
	fmt.Fprintf(w, "%-16s %8s %7s %7s %9s | %7.2f %7.2f %7.2f%% %7.2f%% %8.2f %8.2f | %7.2f %7.2f %7.2f%% %7.2f%% %8.2f %8.2f\n",
		"Avg.", "", "", "", "",
		s.AlignedILP.Disp, s.AlignedOurs.Disp,
		s.AlignedILP.DeltaHPWL*100, s.AlignedOurs.DeltaHPWL*100,
		s.AlignedILP.Runtime.Seconds(), s.AlignedOurs.Runtime.Seconds(),
		s.RelaxedILP.Disp, s.RelaxedOurs.Disp,
		s.RelaxedILP.DeltaHPWL*100, s.RelaxedOurs.DeltaHPWL*100,
		s.RelaxedILP.Runtime.Seconds(), s.RelaxedOurs.Runtime.Seconds())
	if !skipILP && s.AlignedOurs.Runtime > 0 {
		fmt.Fprintf(w, "Runtime ratio ILP/Ours: aligned %.1f×, relaxed %.1f×  (paper: 185×, 186×)\n",
			s.AlignedILP.Runtime.Seconds()/s.AlignedOurs.Runtime.Seconds(),
			s.RelaxedILP.Runtime.Seconds()/s.RelaxedOurs.Runtime.Seconds())
		if s.AlignedOurs.Disp > 0 {
			fmt.Fprintf(w, "Displacement ratio ILP/Ours: aligned %.2f (paper: 0.87), relaxed %.2f (paper: 0.93)\n",
				s.AlignedILP.Disp/s.AlignedOurs.Disp,
				s.RelaxedILP.Disp/s.RelaxedOurs.Disp)
		}
	}
}

// RelaxationSummary is the §6 closing experiment: the improvement from
// relaxing power-line alignment.
type RelaxationSummary struct {
	ILPDispReduction  float64 // paper: 38% lower
	OursDispReduction float64 // paper: 42% lower
	ILPWLImprovement  float64 // paper: 45% better
	OursWLImprovement float64 // paper: 58% better
}

// Relaxation derives the §6 relaxation comparison from Table-1 rows.
func Relaxation(rows []Table1Row) RelaxationSummary {
	s := Summarize(rows)
	out := RelaxationSummary{}
	if s.AlignedILP.Disp > 0 {
		out.ILPDispReduction = 1 - s.RelaxedILP.Disp/s.AlignedILP.Disp
	}
	if s.AlignedOurs.Disp > 0 {
		out.OursDispReduction = 1 - s.RelaxedOurs.Disp/s.AlignedOurs.Disp
	}
	if s.AlignedILP.DeltaHPWL > 0 {
		out.ILPWLImprovement = 1 - s.RelaxedILP.DeltaHPWL/s.AlignedILP.DeltaHPWL
	}
	if s.AlignedOurs.DeltaHPWL > 0 {
		out.OursWLImprovement = 1 - s.RelaxedOurs.DeltaHPWL/s.AlignedOurs.DeltaHPWL
	}
	return out
}

// PrintRelaxation renders the §6 relaxation experiment.
func PrintRelaxation(w io.Writer, rs RelaxationSummary, withILP bool) {
	fmt.Fprintf(w, "Relaxing power-line alignment (paper §6 closing paragraph):\n")
	if withILP {
		fmt.Fprintf(w, "  ILP : displacement %.0f%% lower (paper 38%%), ΔHPWL %.0f%% better (paper 45%%)\n",
			rs.ILPDispReduction*100, rs.ILPWLImprovement*100)
	}
	fmt.Fprintf(w, "  Ours: displacement %.0f%% lower (paper 42%%), ΔHPWL %.0f%% better (paper 58%%)\n",
		rs.OursDispReduction*100, rs.OursWLImprovement*100)
}
