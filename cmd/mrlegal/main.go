// Command mrlegal legalizes a design in the mrlegal text format using the
// paper's MLL algorithm (or the ILP baseline with -ilp), verifies the
// result, prints the Table-1 metrics and writes the legalized design.
//
// Usage:
//
//	mrgen -name demo -cells 2000 -density 0.6 | mrlegal -o legal.mr
//	mrlegal -in fft_1.mr -ilp -noalign -o /dev/null
//	mrlegal -in demo.mr -metrics-addr :8080 -trace-out trace.jsonl -o legal.mr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mrlegal/internal/bookshelf"
	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/ilplegal"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/netlist"
	"mrlegal/internal/obs"
	"mrlegal/internal/profiling"
	"mrlegal/internal/render"
	"mrlegal/internal/verify"
)

// stopProfiles flushes any active profiles; fatal and early exits call it
// so -cpuprofile/-trace output survives error paths.
var stopProfiles = func() {}

// observer feeds -metrics-addr and the -trace-out sink. fatal closes it
// too, so an interrupted run leaves a valid (if partial) trace rather
// than a truncated one.
var observer *obs.Observer

func main() {
	cfg := core.DefaultConfig()
	var (
		in      = flag.String("in", "-", "input design file ('-' = stdin)")
		out     = flag.String("o", "-", "output design file ('-' = stdout, '' = none)")
		rx      = flag.Int("rx", cfg.Rx, "local region half-width Rx (sites)")
		ry      = flag.Int("ry", cfg.Ry, "local region half-height Ry (rows)")
		noalign = flag.Bool("noalign", false, "relax the power-line alignment constraint")
		exact   = flag.Bool("exact", false, "use exact insertion-point evaluation instead of the paper's approximation")
		exhaust = flag.Bool("exhaustive-search", false, "evaluate every insertion point instead of the pruned best-first search (same result, more work)")
		useILP  = flag.Bool("ilp", false, "use the ILP local solver baseline instead of MLL")
		consStr = flag.String("constraints", "", "constraint plugins, ';'-separated specs: fence:x0=..,y0=..,x1=..,y1=..[,minh=N] | spacing:gap=G[,minw=M] | tpl:sep=S (docs/CONSTRAINTS.md)")
		seed    = flag.Int64("seed", cfg.Seed, "retry-offset random seed")
		quiet   = flag.Bool("q", false, "suppress the metrics report")
		svg     = flag.String("svg", "", "also write an SVG rendering (with displacement vectors) to this file")

		timeout    = flag.Duration("timeout", 0, "overall legalization deadline (0 = none)")
		bestEffort = flag.Bool("best-effort", false, "place as many cells as possible and report failures instead of aborting")
		auditEvery = flag.Int("audit-every", 0, "run a full invariant audit every N placements, rolling back the batch on violation (0 = off)")

		metricsAddr = flag.String("metrics-addr", "", "serve live Prometheus metrics at http://ADDR/metrics during the run (':0' picks a free port; see docs/OBSERVABILITY.md)")
		traceFlag   = flag.String("trace-out", "", "write the per-cell JSONL placement trace to this file ('-' = stdout)")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	var d *design.Design
	var nl *netlist.Netlist
	if strings.HasSuffix(*in, ".aux") {
		dir, base := filepath.Split(*in)
		if dir == "" {
			dir = "."
		}
		var err error
		d, nl, err = bookshelf.Read(bookshelf.DirFS(dir), base)
		if err != nil {
			fatal(err)
		}
	} else {
		var r io.Reader = os.Stdin
		if *in != "-" {
			f, err := os.Open(*in)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			r = f
		}
		var err error
		d, nl, err = iodesign.Read(r)
		if err != nil {
			fatal(err)
		}
	}
	before := nl.HPWL(d)

	cfg.Rx, cfg.Ry = *rx, *ry
	cfg.PowerAlign = !*noalign
	cfg.ExactEval = *exact
	cfg.ExhaustiveSearch = *exhaust
	cfg.Seed = *seed
	cfg.AuditEvery = *auditEvery
	cfg.PhaseTiming = !*quiet
	if *useILP {
		cfg.Solver = &ilplegal.Solver{}
	}
	cons, err := constraint.Parse(*consStr)
	if err != nil {
		fatal(err)
	}
	cfg.Constraints = cons

	// Observability: a shared observer feeds the -metrics-addr exposition
	// and the -trace-out JSONL sink (docs/OBSERVABILITY.md).
	if *metricsAddr != "" || *traceFlag != "" {
		if observer, err = obs.Open(*traceFlag); err != nil {
			fatal(err)
		}
		cfg.Obs = observer
		if *metricsAddr != "" {
			srv, err := obs.Serve(*metricsAddr, observer.Registry())
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "mrlegal: serving metrics on http://%s/metrics\n", srv.Addr())
		}
	}

	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		fatal(err)
	}
	// SIGINT/SIGTERM cancel the run context: LegalizeCtx unwinds at the
	// next placement boundary (the design stays transactionally
	// consistent) and profiles and traces are flushed, not truncated.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	allPlaced := true
	if *bestEffort {
		rep, err := l.LegalizeBestEffort(ctx)
		if err != nil {
			fatal(err)
		}
		allPlaced = len(rep.Failed) == 0
		if !*quiet || !allPlaced {
			fmt.Fprint(os.Stderr, rep.Summary(10))
		}
	} else if err := l.LegalizeCtx(ctx); err != nil {
		if errors.Is(err, core.ErrCanceled) && ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "mrlegal: interrupted; partial placement discarded (use -best-effort to keep partial results)")
		}
		fatal(err)
	}
	elapsed := time.Since(start)

	if err := observer.Close(); err != nil {
		fatal(fmt.Errorf("trace-out: %w", err))
	}

	if vs := verify.Check(d, verify.Options{RequirePlaced: allPlaced, PowerAlignment: cfg.PowerAlign,
		Extra: cons.Checkers()}, 5); len(vs) > 0 {
		for _, v := range vs {
			fmt.Fprintf(os.Stderr, "mrlegal: VIOLATION %s\n", v)
		}
		stopProfiles()
		os.Exit(2)
	}
	if !*quiet {
		_, avg := d.TotalDispSites()
		after := nl.HPWL(d)
		st := l.Stats()
		fmt.Fprintf(os.Stderr, "legalized %d cells in %s\n", len(d.Cells), elapsed.Round(time.Millisecond))
		fmt.Fprintf(os.Stderr, "  avg displacement : %.4f site widths\n", avg)
		fmt.Fprintf(os.Stderr, "  ΔHPWL            : %+.3f%%\n", netlist.HPWLDelta(before, after)*100)
		fmt.Fprintf(os.Stderr, "  direct placements: %d, MLL calls: %d (%d failed), retry rounds: %d\n",
			st.DirectPlacements, st.MLLCalls, st.MLLFailures, st.RetryRounds)
		fmt.Fprintf(os.Stderr, "  search           : %d evaluated", st.InsertionPoints)
		if st.CandidatesPruned > 0 || st.SearchNodesCut > 0 || st.WindowsPruned > 0 {
			fmt.Fprintf(os.Stderr, ", %d candidates pruned, %d subtrees cut, %d windows pruned",
				st.CandidatesPruned, st.SearchNodesCut, st.WindowsPruned)
		}
		fmt.Fprintln(os.Stderr)
		if st.ConstraintFiltered > 0 {
			fmt.Fprintf(os.Stderr, "  constraints      : %d candidate positions filtered\n", st.ConstraintFiltered)
		}
		if ph := l.Phases(); ph.Total() > 0 {
			fmt.Fprintf(os.Stderr, "  MLL phase times  : extract %s, enumerate %s, evaluate %s, realize %s\n",
				ph.Extract.Round(time.Millisecond), ph.Enumerate.Round(time.Millisecond),
				ph.Evaluate.Round(time.Millisecond), ph.Realize.Round(time.Millisecond))
		}
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			fatal(err)
		}
		if err := render.SVG(f, d, render.Options{ShowDisplacement: true}); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if strings.HasSuffix(*out, ".aux") {
			dir, base := filepath.Split(*out)
			if dir == "" {
				dir = "."
			}
			if err := bookshelf.Write(bookshelf.DirFS(dir), strings.TrimSuffix(base, ".aux"), d, nl); err != nil {
				fatal(err)
			}
		} else if *out == "-" {
			if err := iodesign.Write(os.Stdout, d, nl); err != nil {
				fatal(err)
			}
		} else {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := iodesign.Write(f, d, nl); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mrlegal: %v\n", err)
	// The trace's own error, if any, is err itself or second to it, so
	// only err is printed.
	_ = observer.Close()
	stopProfiles()
	os.Exit(1)
}
