package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/ilplegal"
)

// tinyCfg keeps experiment tests fast: two small benchmarks at a large
// downscale.
func tinyCfg() Table1Config {
	return Table1Config{
		Scale: 800,
		Only:  []string{"fft_a", "pci_bridge32_b"},
	}
}

func TestRunTable1MLLOnly(t *testing.T) {
	cfg := tinyCfg()
	cfg.SkipILP = true
	rows := RunTable1(cfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SCells == 0 || r.DCells == 0 {
			t.Fatalf("%s: missing cell counts %+v", r.Name, r)
		}
		if r.GPHPWL <= 0 {
			t.Fatalf("%s: GP HPWL %v", r.Name, r.GPHPWL)
		}
		for _, res := range []LegalizeResult{r.Aligned.Ours, r.Relaxed.Ours} {
			if res.Err != "" || !res.Legal {
				t.Fatalf("%s: %+v", r.Name, res)
			}
			if res.AvgDisp <= 0 || res.Runtime <= 0 {
				t.Fatalf("%s: degenerate metrics %+v", r.Name, res)
			}
		}
		// Relaxed displacement should not exceed aligned (it is a strictly
		// weaker constraint set; tiny noise aside).
		if r.Relaxed.Ours.AvgDisp > r.Aligned.Ours.AvgDisp*1.25 {
			t.Errorf("%s: relaxed disp %v much worse than aligned %v",
				r.Name, r.Relaxed.Ours.AvgDisp, r.Aligned.Ours.AvgDisp)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows, true)
	out := buf.String()
	if !strings.Contains(out, "fft_a") || !strings.Contains(out, "Avg.") {
		t.Fatalf("PrintTable1 output malformed:\n%s", out)
	}
}

func TestRunTable1WithILP(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP columns are slow")
	}
	cfg := Table1Config{Scale: 1200, Only: []string{"pci_bridge32_b"}}
	rows := RunTable1(cfg)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Aligned.ILP.Err != "" || !r.Aligned.ILP.Legal {
		t.Fatalf("ILP aligned failed: %+v", r.Aligned.ILP)
	}
	// The ILP optimum can't be (meaningfully) worse than MLL.
	if r.Aligned.ILP.AvgDisp > r.Aligned.Ours.AvgDisp*1.05 {
		t.Errorf("ILP disp %v worse than MLL %v", r.Aligned.ILP.AvgDisp, r.Aligned.Ours.AvgDisp)
	}
	// And it should be slower (that is the paper's headline trade-off).
	if r.Aligned.ILP.Runtime < r.Aligned.Ours.Runtime {
		t.Logf("note: ILP ran faster than MLL on this tiny instance (%v vs %v)",
			r.Aligned.ILP.Runtime, r.Aligned.Ours.Runtime)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows, false)
	if !strings.Contains(buf.String(), "Runtime ratio ILP/Ours") {
		t.Fatal("summary ratios missing")
	}
}

func TestRelaxationSummary(t *testing.T) {
	rows := []Table1Row{
		{
			Aligned: ModeResult{
				ILP:  LegalizeResult{AvgDisp: 1.0, DeltaHPWL: 0.0044, Legal: true, Runtime: time.Second},
				Ours: LegalizeResult{AvgDisp: 1.16, DeltaHPWL: 0.0046, Legal: true, Runtime: time.Second},
			},
			Relaxed: ModeResult{
				ILP:  LegalizeResult{AvgDisp: 0.62, DeltaHPWL: 0.0024, Legal: true, Runtime: time.Second},
				Ours: LegalizeResult{AvgDisp: 0.67, DeltaHPWL: 0.0019, Legal: true, Runtime: time.Second},
			},
		},
	}
	rs := Relaxation(rows)
	if rs.ILPDispReduction < 0.37 || rs.ILPDispReduction > 0.39 {
		t.Fatalf("ILP disp reduction %v, want ≈0.38 (paper)", rs.ILPDispReduction)
	}
	if rs.OursDispReduction < 0.41 || rs.OursDispReduction > 0.43 {
		t.Fatalf("Ours disp reduction %v, want ≈0.42 (paper)", rs.OursDispReduction)
	}
	var buf bytes.Buffer
	PrintRelaxation(&buf, rs, true)
	if !strings.Contains(buf.String(), "paper 42%") {
		t.Fatal("relaxation print malformed")
	}
}

func TestSummarizeSkipsFailures(t *testing.T) {
	rows := []Table1Row{
		{Aligned: ModeResult{Ours: LegalizeResult{AvgDisp: 2, Legal: true}}},
		{Aligned: ModeResult{Ours: LegalizeResult{Err: "boom"}}},
	}
	s := Summarize(rows)
	if s.AlignedOurs.N != 1 || s.AlignedOurs.Disp != 2 {
		t.Fatalf("summary = %+v", s.AlignedOurs)
	}
}

func TestRunEvalAblation(t *testing.T) {
	cfg := tinyCfg()
	rows := RunEvalAblation(cfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Approx.Err != "" || r.Exact.Err != "" {
			t.Fatalf("%s: %+v", r.Name, r)
		}
	}
	var buf bytes.Buffer
	PrintEvalAblation(&buf, rows)
	if !strings.Contains(buf.String(), "DispApprox") {
		t.Fatal("print malformed")
	}
}

// TestRunSearchAblation checks experiment E10's claim on each benchmark:
// both search modes legalize, place every cell identically after the
// same MLL calls, and the best-first search evaluates no more insertion
// points than the exhaustive sweep.
func TestRunSearchAblation(t *testing.T) {
	rows := RunSearchAblation(tinyCfg())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		bf, ex := r.BestFirst, r.Exhaustive
		if bf.Err != "" || !bf.Legal || ex.Err != "" || !ex.Legal {
			t.Fatalf("%s: best-first %+v, exhaustive %+v", r.Name, bf, ex)
		}
		if bf.Checksum != ex.Checksum {
			t.Errorf("%s: checksum best-first %016x, exhaustive %016x", r.Name, bf.Checksum, ex.Checksum)
		}
		if bf.Stats.MLLCalls != ex.Stats.MLLCalls {
			t.Errorf("%s: MLL calls best-first %d, exhaustive %d", r.Name, bf.Stats.MLLCalls, ex.Stats.MLLCalls)
		}
		if bf.Stats.InsertionPoints > ex.Stats.InsertionPoints {
			t.Errorf("%s: best-first evaluated %d insertion points, exhaustive %d",
				r.Name, bf.Stats.InsertionPoints, ex.Stats.InsertionPoints)
		}
	}
	var buf bytes.Buffer
	PrintSearchAblation(&buf, rows)
	if !strings.Contains(buf.String(), "identical=true") {
		t.Fatalf("totals row does not report identical placements:\n%s", buf.String())
	}
}

func TestRunWindowSweep(t *testing.T) {
	cfg := Table1Config{Scale: 800}
	rows := RunWindowSweep(cfg, "fft_a", []int{10, 30}, []int{2, 5})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Result.Err != "" || !r.Result.Legal {
			t.Fatalf("Rx=%d Ry=%d: %+v", r.Rx, r.Ry, r.Result)
		}
	}
	if RunWindowSweep(cfg, "no_such_bench", []int{10}, []int{2}) != nil {
		t.Fatal("unknown benchmark should give nil")
	}
	var buf bytes.Buffer
	PrintWindowSweep(&buf, "fft_a", rows)
	if !strings.Contains(buf.String(), "Rx") {
		t.Fatal("print malformed")
	}
}

func TestRunBaselines(t *testing.T) {
	cfg := tinyCfg()
	rows := RunBaselines(cfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MLL.Err != "" {
			t.Fatalf("%s MLL failed: %s", r.Name, r.MLL.Err)
		}
		// Baselines may fail on dense instances (that is part of the
		// story); when they succeed they must be legal.
		for _, res := range []LegalizeResult{r.Abacus, r.Greedy} {
			if res.Err == "" && !res.Legal {
				t.Fatalf("%s: baseline produced illegal result", r.Name)
			}
		}
	}
	var buf bytes.Buffer
	PrintBaselines(&buf, rows)
	if !strings.Contains(buf.String(), "MLL.disp") {
		t.Fatal("print malformed")
	}
}

func TestRunOneRespectsSolver(t *testing.T) {
	p := Prepare(bengen.Spec{Name: "tiny", NumCells: 250, Density: 0.4, Seed: 9}, 0)
	cfg := core.DefaultConfig()
	sol := &ilplegal.Solver{}
	cfg.Solver = sol
	res := RunOne(p, cfg)
	if res.Err != "" || !res.Legal {
		t.Fatalf("ILP run failed: %+v", res)
	}
	if sol.Problems == 0 {
		t.Fatal("ILP solver never invoked")
	}
}

func TestRunHeightMix(t *testing.T) {
	cfg := Table1Config{Scale: 600}
	rows := RunHeightMix(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Result.Err != "" || !r.Result.Legal {
			t.Fatalf("maxH=%d: %+v", r.MaxHeight, r.Result)
		}
	}
	var buf bytes.Buffer
	PrintHeightMix(&buf, rows)
	if !strings.Contains(buf.String(), "MaxHeight") {
		t.Fatal("print malformed")
	}
}

func TestRunOrderAblation(t *testing.T) {
	cfg := tinyCfg()
	rows := RunOrderAblation(cfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TallFirst.Err != "" {
			t.Fatalf("%s tall-first failed: %s", r.Name, r.TallFirst.Err)
		}
	}
	var buf bytes.Buffer
	PrintOrderAblation(&buf, rows)
	if !strings.Contains(buf.String(), "TallFirst") {
		t.Fatal("print malformed")
	}
}

func TestRunScaling(t *testing.T) {
	cfg := Table1Config{}
	// fft_a would clamp to the 200-cell floor at both scales; use a
	// larger design so the sizes actually differ.
	rows := RunScaling(cfg, "superblue19", []int{800, 400})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Cells >= rows[1].Cells {
		t.Fatal("scales not increasing in cells")
	}
	for _, r := range rows {
		if r.Result.Err != "" || !r.Result.Legal {
			t.Fatalf("%+v", r)
		}
	}
	var buf bytes.Buffer
	PrintScaling(&buf, "superblue19", rows)
	if !strings.Contains(buf.String(), "µs/cell") {
		t.Fatal("print malformed")
	}
}
