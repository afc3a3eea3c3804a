// Command mrserve runs the legalization job server: an HTTP/JSON API
// that accepts design submissions, legalizes them best-effort on a
// bounded worker pool, and serves job status, reports and legalized
// placements. It also hosts incremental (ECO) legalization sessions:
// a legalized design stays live server-side and clients stream framed
// delta batches (move/resize/insert/delete) that relegalize only the
// perturbed neighborhood. See docs/SERVICE.md for the API.
//
// Usage:
//
//	mrserve -addr :8080
//	mrserve -addr 127.0.0.1:0 -addr-file /tmp/mrserve.addr -workers 4
//
// The server shuts down gracefully on SIGINT/SIGTERM: admission stops
// (readyz answers 503), in-flight jobs drain within -drain-timeout (then
// are canceled), and trace output is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/jobq"
	"mrlegal/internal/obs"
	"mrlegal/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (':0' picks a free port)")
		addrFile = flag.String("addr-file", "", "write the resolved listen address to this file once serving (for scripts)")

		workers    = flag.Int("workers", 0, "job worker pool size (0 = NumCPU)")
		queueBound = flag.Int("queue-bound", 64, "global queued-job bound; submissions beyond it answer 429")
		perTenant  = flag.Int("per-tenant", 16, "per-tenant in-flight (queued+running) cap; beyond it answers 429")
		jobTimeout = flag.Duration("job-timeout", 5*time.Minute, "default per-job deadline when the client sets none")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline; jobs still running after it are canceled")
		maxBody    = flag.Int64("max-body", 64<<20, "maximum request body size in bytes")

		maxSessions       = flag.Int("max-sessions", 0, "cap on concurrently open ECO sessions across all tenants (0 = default 16)")
		sessionsPerTenant = flag.Int("sessions-per-tenant", 0, "cap on concurrently open ECO sessions per tenant (0 = default 4)")

		rx      = flag.Int("rx", 30, "local region half-width Rx (sites)")
		ry      = flag.Int("ry", 5, "local region half-height Ry (rows)")
		noalign = flag.Bool("noalign", false, "relax the power-line alignment constraint")
		seed    = flag.Int64("seed", 1, "retry-offset random seed")
		consStr = flag.String("constraints", "", "base constraint plugins for every job, ';'-separated specs (see mrlegal -constraints; jobs may override via config.constraints)")

		traceFlag = flag.String("trace-out", "", "write per-cell JSONL placement traces to this file")
	)
	flag.Parse()
	// An explicitly-passed zero or negative count is a configuration
	// error, not a request for the flag's "auto/default" semantics — fail
	// fast with usage instead of silently running in a different mode.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers", "max-sessions", "sessions-per-tenant":
			if n, err := strconv.Atoi(f.Value.String()); err == nil && n <= 0 {
				fmt.Fprintf(os.Stderr, "mrserve: -%s: count must be positive, got %d\n", f.Name, n)
				flag.Usage()
				os.Exit(2)
			}
		}
	})

	base := core.DefaultConfig()
	base.Rx, base.Ry = *rx, *ry
	base.PowerAlign = !*noalign
	base.Seed = *seed
	cons, err := constraint.Parse(*consStr)
	if err != nil {
		fatal(err)
	}
	base.Constraints = cons

	observer, err := obs.Open(*traceFlag)
	if err != nil {
		fatal(err)
	}
	base.Obs = observer

	srv, err := service.New(service.Config{
		Addr: *addr,
		Queue: jobq.Config{
			Workers:    *workers,
			QueueBound: *queueBound,
			PerTenant:  *perTenant,
			JobTimeout: *jobTimeout,
		},
		Sessions: jobq.SessionConfig{
			MaxSessions: *maxSessions,
			PerTenant:   *sessionsPerTenant,
		},
		BaseCfg:      &base,
		MaxBodyBytes: *maxBody,
		DrainTimeout: *drain,
		Obs:          observer,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := srv.Start(); err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "mrserve: listening on http://%s\n", srv.Addr())

	<-ctx.Done()
	stop() // a second signal kills immediately instead of re-draining
	fmt.Fprintf(os.Stderr, "mrserve: shutdown requested, draining (deadline %s)\n", *drain)
	err = srv.Close()
	if cerr := observer.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("trace-out: %w", cerr)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mrserve: %v\n", err)
	os.Exit(1)
}
