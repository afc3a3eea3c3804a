// Command mrbench regenerates the paper's evaluation artifacts (see
// DESIGN.md's experiment index):
//
//	mrbench -experiment table1 -scale 200            # Table 1 (E1+E2)
//	mrbench -experiment table1 -skip-ilp -scale 50   # MLL columns only
//	mrbench -experiment relax                        # §6 relaxation (E3)
//	mrbench -experiment evalablation                 # approx vs exact (E4)
//	mrbench -experiment window -bench fft_1          # Rx/Ry sweep (E5)
//	mrbench -experiment baselines                    # Abacus/greedy (E6)
//	mrbench -experiment prune -scale 400 \
//	        -json BENCH_prune.json                   # best-first search vs exhaustive
//	mrbench -experiment shard -sizes 20000,1000000 \
//	        -json BENCH_shard.json                   # spatial sharding sweep (§7)
//	mrbench -experiment eco -sizes 5000,20000 \
//	        -delta-fracs 0.001,0.01,0.05 \
//	        -json BENCH_eco.json                     # incremental vs full relegalization (§9)
//	mrbench -experiment table1 -skip-ilp -metrics \
//	        -trace-out trace.jsonl                   # + Prometheus dump & JSONL trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"mrlegal/internal/experiments"
	"mrlegal/internal/obs"
	"mrlegal/internal/profiling"
)

func main() {
	var (
		exp     = flag.String("experiment", "table1", "table1 | relax | evalablation | window | baselines | heightmix | order | scaling | prune | shard | eco")
		scale   = flag.Int("scale", 200, "benchmark downscale factor (1 = paper-size, large = fast)")
		skipILP = flag.Bool("skip-ilp", false, "skip the (slow) ILP baseline columns")
		only    = flag.String("only", "", "comma-separated benchmark name filter")
		bench   = flag.String("bench", "fft_1", "benchmark for the window sweep")
		seed    = flag.Int64("seed", 0, "seed offset for sensitivity runs")
		rx      = flag.Int("rx", 0, "local region half-width Rx override (0 = paper default 30)")
		ry      = flag.Int("ry", 0, "local region half-height Ry override (0 = paper default 5)")
		nodes   = flag.Int("ilp-nodes", 0, "branch & bound node cap per local MILP (0 = default)")
		quietP  = flag.Bool("no-progress", false, "suppress per-benchmark progress lines")
		shards  = flag.String("shards", "", "comma-separated shard counts for -experiment shard (default \"1,2,4,8\")")
		sizes   = flag.String("sizes", "", "comma-separated synthetic design sizes for -experiment shard/eco (default \"5000,20000\")")

		deltaFracs = flag.String("delta-fracs", "", "comma-separated perturbed-cell fractions for -experiment eco (default \"0.001,0.01,0.05\")")
		jsonOut    = flag.String("json", "", "write the prune, shard or eco experiment's report as JSON to this file instead of a table")

		metrics   = flag.Bool("metrics", false, "emit the accumulated Prometheus text exposition once to stdout after the experiment (see docs/OBSERVABILITY.md)")
		traceFlag = flag.String("trace-out", "", "write the per-cell JSONL placement trace of every run to this file")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	// Explicitly-passed zero or negative counts are configuration errors,
	// not requests for the "auto" default — fail fast with usage.
	if err := rejectNonPositiveListFlags("shards", "sizes"); err != nil {
		fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
		os.Exit(1)
	}
	defer stop()

	// SIGINT/SIGTERM cancel the experiment context: the in-flight run
	// unwinds at its next placement boundary (reported as a canceled
	// result) and the deferred profile/trace flushes still run, so
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
	var traceFile *os.File
	if *metrics || *traceFlag != "" {
		opt := obs.Options{}
		if *traceFlag != "" {
			f, err := os.Create(*traceFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
				stop()
				os.Exit(1)
			}
			traceFile = f
			opt.TraceOut = f
		}
		observer = obs.New(opt)
		cfg.Obs = observer
	}
	finishObs := func() {
		if observer == nil {
			return
		}
		if err := observer.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: trace-out: %v\n", err)
		}
		if traceFile != nil {
			traceFile.Close()
		}
		if *metrics {
			if err := observer.Registry().WritePrometheus(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: metrics: %v\n", err)
			}
		}
	}
	defer finishObs()

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
	case "shard":
		shardCounts, err := parseCounts(*shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: -shards: %v\n", err)
			stop()
			os.Exit(2)
		}
		sizeList, err := parseCounts(*sizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: -sizes: %v\n", err)
			stop()
			os.Exit(2)
		}
		scfg := experiments.ShardConfig{
			Sizes:       sizeList,
			ShardCounts: shardCounts,
			Seed:        *seed,
			Ctx:         ctx,
		}
		if !*quietP {
			scfg.Progress = os.Stderr
		}
		rep := experiments.RunShard(scfg)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err == nil {
				err = experiments.WriteShardJSON(f, rep)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
				stop()
				os.Exit(1)
			}
		} else {
			experiments.PrintShard(os.Stdout, rep)
		}
	case "prune":
		rep := experiments.RunPrune(cfg)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err == nil {
				err = experiments.WritePruneJSON(f, rep)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
				stop()
				os.Exit(1)
			}
		} else {
			experiments.PrintPrune(os.Stdout, rep)
		}
	case "eco":
		sizeList, err := parseCounts(*sizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: -sizes: %v\n", err)
			stop()
			os.Exit(2)
		}
		fracList, err := parseFracs(*deltaFracs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: -delta-fracs: %v\n", err)
			stop()
			os.Exit(2)
		}
		ecfg := experiments.EcoConfig{
			Sizes:      sizeList,
			DeltaFracs: fracList,
			Seed:       *seed,
			Ctx:        ctx,
		}
		if !*quietP {
			ecfg.Progress = os.Stderr
		}
		rep := experiments.RunEco(ecfg)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err == nil {
				err = experiments.WriteEcoJSON(f, rep)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
				stop()
				os.Exit(1)
			}
		} else {
			experiments.PrintEco(os.Stdout, rep)
		}
	default:
		fmt.Fprintf(os.Stderr, "mrbench: unknown experiment %q\n", *exp)
		stop()
		os.Exit(2)
	}
}

// rejectNonPositiveListFlags validates the named comma-separated count
// flags: any explicitly-passed entry that parses as an integer <= 0 is an
// error. Omitted flags keep their default (auto) semantics; non-integer
// junk is left for the per-experiment parser so the error names the
// experiment that needed the flag.
func rejectNonPositiveListFlags(names ...string) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		if err != nil || !contains(names, f.Name) {
			return
		}
		for _, field := range strings.Split(f.Value.String(), ",") {
			n, perr := strconv.Atoi(strings.TrimSpace(field))
			if perr == nil && n <= 0 {
				err = fmt.Errorf("-%s: count must be positive, got %d", f.Name, n)
				return
			}
		}
	})
	return err
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// parseFracs parses a comma-separated list of fractions in (0, 1].
func parseFracs(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 1 {
			return nil, fmt.Errorf("bad delta fraction %q (want 0 < f <= 1)", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseCounts parses a comma-separated list of positive counts.
func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
