package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/gp"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/jobq"
	"mrlegal/internal/obs"
	"mrlegal/internal/service"
)

// table1Scale is the Table-1 down-scaling: 20 designs of 578–25,738
// cells, 108,184 in total.
const table1Scale = 50

// jobsPassSeconds is the nominal wall of one pass over the suite.
const jobsPassSeconds = 2.2

// jobsMemPasses is the fixed prefix after which peak_rss_mb is read:
// finished jobs stay resident on the server, so a later reading would
// grow with throughput instead of measuring the same work every run.
const jobsMemPasses = 3

// table1Design is one generated, globally placed Table-1 design.
type table1Design struct {
	name  string
	text  []byte // iodesign text with netlist: the program's input
	body  []byte // the POST /v1/jobs payload carrying text
	cells int
}

// jobServer is an in-process job server and the client that drives it.
type jobServer struct {
	srv *service.Server
	c   *client
}

// startServer starts a server with the shipped defaults (pool workers =
// NumCPU, engine Workers = 1); traced servers also get phase timing and
// an observer, so /metrics carries the engine's series.
func startServer(o options, traced bool) (*jobServer, error) {
	cfg := service.Config{Log: log.New(o.log, "mrserve: ", 0)}
	if traced {
		ob := obs.New(obs.Options{})
		base := core.DefaultConfig()
		base.Workers = 1
		base.PhaseTiming = true
		base.Obs = ob
		cfg.Obs, cfg.BaseCfg = ob, &base
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &jobServer{srv: srv, c: newClient(srv.Addr())}, nil
}

func (s *jobServer) close() error {
	s.c.close()
	return s.srv.Close()
}

// table1Inputs generates the Table-1 suite: bengen designs and global
// placement with the suite's own seeds (the designs internal/experiments
// regenerates), then the text the program receives. It returns the summed
// gp.Place wall.
func table1Inputs(o options) ([]table1Design, time.Duration, error) {
	var (
		out     []table1Design
		gpTotal time.Duration
	)
	for _, spec := range bengen.Table1Specs(table1Scale * o.scale) {
		b := bengen.Generate(spec)
		t0 := time.Now()
		gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
		gpTotal += time.Since(t0)
		var text bytes.Buffer
		if err := iodesign.Write(&text, b.D, b.NL); err != nil {
			return nil, 0, fmt.Errorf("%s: write: %w", spec.Name, err)
		}
		body, err := json.Marshal(service.SubmitRequest{DesignText: text.String()})
		if err != nil {
			return nil, 0, err
		}
		out = append(out, table1Design{name: spec.Name, text: text.Bytes(), body: body, cells: movable(b.D)})
	}
	return out, gpTotal, nil
}

// jobRecord is one timed job.
type jobRecord struct {
	design int
	srv    *jobServer
	op     *jobOp
}

// runJobsTable1 measures the HTTP job entry point on the Table-1 suite:
// each op submits one design, polls until the job is terminal and
// fetches the report. The suite is fixed, as the paper's is; the workload
// seed orders the submissions of each pass. Runs are whole passes, so
// every run weighs the 20 designs equally.
func runJobsTable1(ctx context.Context, o options) (*result, error) {
	res := newResult()
	var (
		designs []table1Design
		gpTotal time.Duration
		main    *jobServer
	)
	setup, err := timeSetups(3, func(last bool) error {
		ds, gpt, err := table1Inputs(o)
		if err != nil {
			return err
		}
		s, err := startServer(o, o.traced)
		if err != nil {
			return err
		}
		if !last {
			return s.close()
		}
		designs, gpTotal, main = ds, gpt, s
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	fp := newFingerprint()
	total := 0
	for _, d := range designs {
		fp.add(d.body)
		total += d.cells
	}
	o.logf("jobs_table1: %d designs, %d cells, set-up %.3fs (gp.Place %.3fs), designs %s",
		len(designs), total, setup, secs(gpTotal), fp)
	order := rand.New(rand.NewSource(o.seed))
	sent := newFingerprint()

	// The traced run alternates whole passes between an untraced server
	// (the overhead baseline) and the traced one.
	servers := []*jobServer{main}
	if o.traced {
		plain, err := startServer(o, false)
		if err != nil {
			return nil, err
		}
		servers = []*jobServer{plain, main}
	}
	defer func() {
		for _, s := range servers {
			if err := s.close(); err != nil {
				o.logf("jobs_table1: server close: %v", err)
			}
		}
	}()

	var before map[string]float64
	if o.traced {
		if before, err = main.c.scrape(); err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
	}
	var (
		recs       []jobRecord
		tracedWall []float64
		plainWall  []float64
		cells      []float64
		layers     = res.layers
		m0         memSnap
		tracedOps  int
	)
	passes := opsFor(o.seconds, jobsPassSeconds, max(len(servers), jobsMemPasses))
	for pass := 0; pass < passes; pass++ {
		s := servers[pass%len(servers)]
		traced := o.traced && s == main
		perm := order.Perm(len(designs))
		sent.add([]byte(fmt.Sprint(perm)))
		for _, i := range perm {
			res.attempted++
			if traced {
				m0 = readMem()
			}
			op, err := s.c.runJob(designs[i].body)
			if err != nil {
				res.failed++
				if rejected(err) {
					layers["jobq.rejected"]++
				}
				res.fail("%s: %v", designs[i].name, err)
				continue
			}
			wall := secs(op.end.Sub(op.t0))
			recs = append(recs, jobRecord{design: i, srv: s, op: op})
			if op.job.State != jobq.Succeeded || len(op.report.Failed) > 0 {
				res.failed++
				res.fail("%s: job %s %s with %d unplaced cells", designs[i].name, op.job.ID, op.job.State, len(op.report.Failed))
			}
			if !traced {
				plainWall = append(plainWall, wall)
				cells = append(cells, float64(designs[i].cells))
				continue
			}
			m1 := readMem()
			tracedOps++
			tracedWall = append(tracedWall, wall)
			layers["core.allocs_per_cell"] += float64(m1.mallocs-m0.mallocs) / float64(designs[i].cells)
			addGC(layers, m0, m1)
			if err := jobLayers(layers, op, designs[i]); err != nil {
				return nil, err
			}
		}
		if pass == jobsMemPasses-1 {
			res.e2e["peak_rss_mb"] = peakRSSMB()
		}
	}
	o.logf("jobs_table1: submission order %s", sent)
	if o.traced {
		after, err := main.c.scrape()
		if err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
		scrapeLayers(layers, before, after, tracedOps, o)
		rejectedTotal := layers["jobq.rejected"]
		perOp(layers, tracedOps)
		layers["jobq.rejected"] = rejectedTotal
		finishStatRatios(layers)
		layers["gp.place_s"] = secs(gpTotal)
		layers["obs.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
		res.counters["core.mll_calls"] = layers["core.mll_calls"]
		res.counters["core.insertion_points"] = layers["core.insertion_points"]
	}
	if len(plainWall) > 0 {
		opStats(res, o, plainWall, cells, len(designs))
	}
	jobsGate(ctx, res, designs, recs, o)
	return res, nil
}

// jobLayers records one traced job's client spans, queue times and
// in-process twins of the layers hidden behind HTTP.
func jobLayers(layers map[string]float64, op *jobOp, d table1Design) error {
	j := op.job
	if j.Started == nil || j.Finished == nil {
		return fmt.Errorf("job %s has no start or finish time", j.ID)
	}
	created, started, finished := j.Created, *j.Started, *j.Finished
	layers["service.submit_s"] += secs(op.submitted.Sub(op.t0))
	layers["jobq.wait_s"] += secs(started.Sub(created))
	layers["jobq.run_s"] += secs(finished.Sub(started))
	layers["service.poll_wait_s"] += secs(op.seen.Sub(finished))
	layers["service.polls_per_job"] += float64(op.polls)
	layers["service.report_s"] += secs(op.end.Sub(op.reportStart))
	layers["core.retry_rounds"] += float64(op.report.Rounds - 1)
	// Everything above tiles the op except where the submit span overlaps
	// the queue: the remainder is client time between calls.
	covered := unionLen([][2]time.Time{
		{op.t0, op.submitted}, {created, finished}, {finished, op.seen}, {op.reportStart, op.end},
	})
	layers["unattributed_s"] += secs(op.end.Sub(op.t0) - covered)

	// Twins, outside the op: the server's decode of the same body and
	// its legalizer build (segment grid + occupancy) on the same design.
	t0 := time.Now()
	if _, err := service.DecodeSubmit(bytes.NewReader(d.body), core.DefaultConfig(), service.Limits{}); err != nil {
		return fmt.Errorf("decode twin: %w", err)
	}
	layers["service.decode_s"] += secs(time.Since(t0))
	dd, _, err := iodesign.Read(bytes.NewReader(d.text))
	if err != nil {
		return fmt.Errorf("build twin: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	t1 := time.Now()
	if _, err := core.NewLegalizer(dd, cfg); err != nil {
		return fmt.Errorf("build twin: %w", err)
	}
	layers["segment.build_s"] += secs(time.Since(t1))
	return nil
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = v
			continue
		}
		if v[1].After(cur[1]) {
			cur[1] = v[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// scrapeLayers adds the engine layers the traced server exported on
// /metrics between two scrapes, and cross-checks the queue histograms
// against the client's view of the same jobs.
func scrapeLayers(layers, before, after map[string]float64, ops int, o options) {
	d := func(series string) float64 { return after[series] - before[series] }
	legal := d("mrlegal_run_seconds_sum")
	layers["core.legalize_s"] += legal
	var phases float64
	for _, ph := range []string{"extract", "enumerate", "evaluate", "realize"} {
		v := d(`mrlegal_phase_seconds_sum{phase="` + ph + `"}`)
		layers["core."+ph+"_s"] += v
		phases += v
	}
	layers["core.driver_s"] += legal - phases
	layers["core.mll_calls"] += d("mrlegal_mll_calls_total")
	layers["core.direct_placements"] += d("mrlegal_direct_placements_total")
	layers["core.cells_pushed"] += d("mrlegal_cells_pushed_total")
	layers["core.insertion_points"] += d("mrlegal_insertion_points_evaluated_total")
	layers["core.candidates_pruned"] += d("mrlegal_search_candidates_pruned_total")
	hits := d("mrlegal_extract_cache_hits_total")
	layers["core.cache_hits"] += hits
	layers["core.cache_lookups"] += hits + d("mrlegal_extract_cache_misses_total") + d("mrlegal_extract_cache_invalidations_total")
	layers["sched.dispatched"] += d("mrlegal_sched_dispatched_total")
	layers["sched.deferred"] += d("mrlegal_sched_deferred_total")
	layers["sched.batches"] += d("mrlegal_sched_batches_total")
	layers["sched.batched"] += d("mrlegal_sched_batched_total")
	o.logf("jobs_table1: /metrics cross-check over %d traced jobs: jobq wait %.6fs (client %.6fs), run %.6fs (client %.6fs)",
		ops, d("jobq_job_wait_seconds_sum"), layers["jobq.wait_s"], d("jobq_job_run_seconds_sum"), layers["jobq.run_s"])
}

// jobsGate fetches every job's placement and checks it: it parses, it
// verifies clean with every cell placed, its checksum equals the report's
// and that of a direct library run on the same input. The Table-1
// quality metrics come from the fetched placements.
func jobsGate(ctx context.Context, res *result, designs []table1Design, recs []jobRecord, o options) {
	type placement struct {
		sum  [32]byte
		text []byte
	}
	first := make([]*placement, len(designs))
	firstRec := make([]*jobRecord, len(designs))
	for i := range recs {
		if firstRec[recs[i].design] == nil {
			firstRec[recs[i].design] = &recs[i]
		}
	}
	for _, r := range recs {
		b, err := r.srv.c.do("GET", "/v1/jobs/"+r.op.job.ID+"/placement", nil)
		if err != nil {
			res.fail("%s: fetch placement: %v", designs[r.design].name, err)
			continue
		}
		sum := sha256.Sum256(b)
		if p := first[r.design]; p == nil {
			first[r.design] = &placement{sum: sum, text: b}
		} else if p.sum != sum {
			res.fail("%s: job %s placement differs from the design's first job", designs[r.design].name, r.op.job.ID)
		}
		if r.op.report.PlacementChecksum != firstRec[r.design].op.report.PlacementChecksum {
			res.fail("%s: job %s report checksum differs from the design's first job", designs[r.design].name, r.op.job.ID)
		}
	}
	var dispSum, hpwlSum float64
	for i, d := range designs {
		p := first[i]
		if p == nil {
			res.fail("%s: no placement fetched", d.name)
			continue
		}
		in, nl, err := iodesign.Read(bytes.NewReader(d.text))
		if err != nil {
			res.fail("%s: input does not parse: %v", d.name, err)
			continue
		}
		reported := firstRec[i].op.report.PlacementChecksum
		want, err := strconv.ParseUint(reported, 16, 64)
		if err != nil {
			res.fail("%s: report checksum %q: %v", d.name, reported, err)
			continue
		}
		got, err := checkPlacement(p.text, want)
		if err != nil {
			res.fail("%s: %v", d.name, err)
			continue
		}
		_, disp := got.TotalDispSites()
		hpwl := hpwlDeltaPct(nl, in, got)

		// The direct library run on the same input, with the server's
		// engine configuration.
		direct, disp2, hpwl2, err := directRun(ctx, d.text)
		if err != nil {
			res.fail("%s: direct run: %v", d.name, err)
			continue
		}
		if direct != reported || disp2 != disp || hpwl2 != hpwl {
			res.fail("%s: server %s (disp %v, ΔHPWL %v) differs from direct run %s (disp %v, ΔHPWL %v)",
				d.name, reported, disp, hpwl, direct, disp2, hpwl2)
		}
		dispSum += disp
		hpwlSum += hpwl
	}
	res.e2e["avg_disp_sites"] = dispSum / float64(len(designs))
	res.e2e["delta_hpwl_pct"] = hpwlSum / float64(len(designs))
	o.logf("jobs_table1 gate: %d jobs checked, Table-1 average disp %.17g sites, ΔHPWL %.17g%%",
		len(recs), res.e2e["avg_disp_sites"], res.e2e["delta_hpwl_pct"])
}

// directRun legalizes a design text in process with the job server's
// default engine configuration and returns its checksum and Table-1
// metrics.
func directRun(ctx context.Context, text []byte) (checksum string, disp, hpwl float64, err error) {
	in, nl, err := iodesign.Read(bytes.NewReader(text))
	if err != nil {
		return "", 0, 0, err
	}
	d := in.Clone()
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		return "", 0, 0, err
	}
	rep, err := l.LegalizeBestEffort(ctx)
	if err != nil {
		return "", 0, 0, err
	}
	if len(rep.Failed) > 0 {
		return "", 0, 0, fmt.Errorf("%d cells unplaced", len(rep.Failed))
	}
	_, disp = d.TotalDispSites()
	return fmt.Sprintf("%016x", d.PlacementChecksum()), disp, hpwlDeltaPct(nl, in, d), nil
}
