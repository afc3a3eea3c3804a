// Command mrbench regenerates the paper's evaluation artifacts (see
// DESIGN.md's experiment index):
//
//	mrbench -experiment table1 -scale 200            # Table 1 (E1+E2)
//	mrbench -experiment table1 -skip-ilp -scale 50   # MLL columns only
//	mrbench -experiment relax                        # §6 relaxation (E3)
//	mrbench -experiment evalablation                 # approx vs exact (E4)
//	mrbench -experiment window -bench fft_1          # Rx/Ry sweep (E5)
//	mrbench -experiment baselines                    # Abacus/greedy (E6)
//	mrbench -experiment prune -scale 400             # best-first vs exhaustive search (E10)
//	mrbench -experiment table1 -skip-ilp -metrics \
//	        -trace-out trace.jsonl                   # + Prometheus dump & JSONL trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mrlegal/internal/experiments"
	"mrlegal/internal/obs"
	"mrlegal/internal/profiling"
)

func main() {
	var (
		exp     = flag.String("experiment", "table1", "table1 | relax | evalablation | window | baselines | heightmix | order | scaling | prune")
		scale   = flag.Int("scale", 200, "benchmark downscale factor (1 = paper-size, large = fast)")
		skipILP = flag.Bool("skip-ilp", false, "skip the (slow) ILP baseline columns")
		only    = flag.String("only", "", "comma-separated benchmark name filter")
		bench   = flag.String("bench", "fft_1", "benchmark for the window sweep")
		seed    = flag.Int64("seed", 0, "seed offset for sensitivity runs")
		rx      = flag.Int("rx", 0, "local region half-width Rx override (0 = paper default 30)")
		ry      = flag.Int("ry", 0, "local region half-height Ry override (0 = paper default 5)")
		nodes   = flag.Int("ilp-nodes", 0, "branch & bound node cap per local MILP (0 = default)")
		quietP  = flag.Bool("no-progress", false, "suppress per-benchmark progress lines")

		metrics   = flag.Bool("metrics", false, "emit the accumulated Prometheus text exposition once to stdout after the experiment (see docs/OBSERVABILITY.md)")
		traceFlag = flag.String("trace-out", "", "write the per-cell JSONL placement trace of every run to this file")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
		os.Exit(1)
	}
	defer stop()

	// SIGINT/SIGTERM cancel the experiment context: the in-flight run
	// unwinds at its next placement boundary (reported as a canceled
	// result) and the profile and trace are still flushed, so
	// -cpuprofile and -trace-out output survives an interrupt.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := experiments.Table1Config{
		Scale:       *scale,
		SkipILP:     *skipILP,
		Seed:        *seed,
		Rx:          *rx,
		Ry:          *ry,
		ILPMaxNodes: *nodes,
		Ctx:         ctx,
	}
	if *only != "" {
		cfg.Only = strings.Split(*only, ",")
	}
	if !*quietP {
		cfg.Progress = os.Stderr
	}

	// Observability: one observer shared by every run of the experiment;
	// the exposition is dumped once after the table (docs/OBSERVABILITY.md).
	var observer *obs.Observer
	if *metrics || *traceFlag != "" {
		if observer, err = obs.Open(*traceFlag); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
			stop()
			os.Exit(1)
		}
		cfg.Obs = observer
	}

	switch *exp {
	case "table1":
		rows := experiments.RunTable1(cfg)
		experiments.PrintTable1(os.Stdout, rows, cfg.SkipILP)
	case "relax":
		rows := experiments.RunTable1(cfg)
		experiments.PrintRelaxation(os.Stdout, experiments.Relaxation(rows), !cfg.SkipILP)
	case "evalablation":
		rows := experiments.RunEvalAblation(cfg)
		experiments.PrintEvalAblation(os.Stdout, rows)
	case "window":
		rows := experiments.RunWindowSweep(cfg, *bench,
			[]int{10, 20, 30, 50}, []int{2, 5, 8})
		experiments.PrintWindowSweep(os.Stdout, *bench, rows)
	case "baselines":
		rows := experiments.RunBaselines(cfg)
		experiments.PrintBaselines(os.Stdout, rows)
	case "heightmix":
		rows := experiments.RunHeightMix(cfg)
		experiments.PrintHeightMix(os.Stdout, rows)
	case "order":
		rows := experiments.RunOrderAblation(cfg)
		experiments.PrintOrderAblation(os.Stdout, rows)
	case "scaling":
		rows := experiments.RunScaling(cfg, *bench, []int{800, 400, 200, 100, 50, 25})
		experiments.PrintScaling(os.Stdout, *bench, rows)
	case "prune":
		rows := experiments.RunSearchAblation(cfg)
		experiments.PrintSearchAblation(os.Stdout, rows)
	default:
		fmt.Fprintf(os.Stderr, "mrbench: unknown experiment %q\n", *exp)
		stop()
		os.Exit(2)
	}

	traceErr := observer.Close()
	if *metrics {
		if err := observer.Registry().WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: metrics: %v\n", err)
		}
	}
	if traceErr != nil {
		fmt.Fprintf(os.Stderr, "mrbench: trace-out: %v\n", traceErr)
		stop()
		os.Exit(1)
	}
}
