package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/verify"
)

// large200kCells is the large_200k design size, about 1/6 of the paper's
// superblue12.
const large200kCells = 200_000

// largeOpSeconds is the nominal wall of one large_200k op.
const largeOpSeconds = 7.0

// runLarge200k measures the mrlegal entry point end to end: each op reads
// the design text, legalizes it with the default configuration (Workers =
// NumCPU, phase timing off, as `mrlegal -q`), verifies and writes it.
func runLarge200k(ctx context.Context, o options) (*result, error) {
	res := newResult()
	spec := bengen.SizeSpec{Name: "large_200k", NumCells: large200kCells / o.scale, Density: 0.6, DoubleFrac: 0.10, Seed: o.seed}
	var input []byte
	setup, err := timeSetups(7, func(last bool) error {
		d := bengen.GenerateSized(spec)
		var buf bytes.Buffer
		if err := iodesign.Write(&buf, d, nil); err != nil {
			return fmt.Errorf("write input: %w", err)
		}
		if last {
			input = buf.Bytes()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	fp := newFingerprint()
	fp.add(input)
	o.logf("large_200k: %d cells, set-up %.3fs, input %s", spec.NumCells, setup, fp)

	type opOut struct {
		sum      [32]byte
		checksum uint64
	}
	var (
		walls, tracedWalls []float64
		outs               []opOut
		last               bytes.Buffer
		cells              []float64
		tracedOps          int
		layers             = res.layers
	)
	minOps := 1
	if o.traced {
		minOps = 2 // at least one untraced and one traced op
	}
	for i, n := 0, opsFor(o.seconds, largeOpSeconds, minOps); i < n; i++ {
		traced := o.traced && i%2 == 1
		cfg := core.DefaultConfig()
		cfg.PhaseTiming = traced
		res.attempted++
		var m0 memSnap
		if traced {
			m0 = readMem()
		}
		t0 := time.Now()
		d, nl, err := iodesign.Read(bytes.NewReader(input))
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("read: %w", err)
		}
		l, err := core.NewLegalizer(d, cfg)
		if err != nil {
			return nil, fmt.Errorf("new legalizer: %w", err)
		}
		t2 := time.Now()
		rep, err := l.LegalizeBestEffort(ctx)
		if err != nil {
			return nil, fmt.Errorf("legalize: %w", err)
		}
		t3 := time.Now()
		viols := verify.Check(d, verify.Options{RequirePlaced: true, PowerAlignment: cfg.PowerAlign}, 5)
		t4 := time.Now()
		last.Reset()
		if err := iodesign.Write(&last, d, nl); err != nil {
			return nil, fmt.Errorf("write: %w", err)
		}
		t5 := time.Now()
		wall := secs(t5.Sub(t0))
		var m1 memSnap
		if traced {
			m1 = readMem()
		}

		if len(rep.Failed) > 0 || len(viols) > 0 {
			res.failed++
			res.fail("op %d: %d failed cells, violations %v", i, len(rep.Failed), viols)
		}
		outs = append(outs, opOut{sha256.Sum256(last.Bytes()), d.PlacementChecksum()})
		if i == 0 {
			res.e2e["peak_rss_mb"] = peakRSSMB()
		}
		if !traced {
			walls = append(walls, wall)
			cells = append(cells, float64(movable(d)))
			continue
		}
		tracedOps++
		tracedWalls = append(tracedWalls, wall)
		legal := secs(t3.Sub(t2))
		ph := rep.Phases
		layers["iodesign.read_s"] += secs(t1.Sub(t0))
		layers["segment.build_s"] += secs(t2.Sub(t1))
		layers["core.legalize_s"] += legal
		layers["core.extract_s"] += secs(ph.Extract)
		layers["core.enumerate_s"] += secs(ph.Enumerate)
		layers["core.evaluate_s"] += secs(ph.Evaluate)
		layers["core.realize_s"] += secs(ph.Realize)
		layers["core.driver_s"] += legal - secs(ph.Total())
		layers["verify.check_s"] += secs(t4.Sub(t3))
		layers["iodesign.write_s"] += secs(t5.Sub(t4))
		layers["unattributed_s"] += wall - secs(t1.Sub(t0)+t2.Sub(t1)+t3.Sub(t2)+t4.Sub(t3)+t5.Sub(t4))
		addStats(layers, rep.Stats)
		sc := l.SchedCounters()
		layers["sched.dispatched"] += float64(sc.Dispatched)
		layers["sched.deferred"] += float64(sc.Deferred)
		layers["sched.batches"] += float64(sc.Batches)
		layers["sched.batched"] += float64(sc.Batched)
		layers["core.allocs_per_cell"] += float64(m1.mallocs-m0.mallocs) / float64(movable(d))
		addGC(layers, m0, m1)
		o.logf("traced op %d: wall %.3fs, read %.3f, build %.3f, legalize %.3f (phases %.3f), check %.3f, write %.3f",
			i, wall, secs(t1.Sub(t0)), secs(t2.Sub(t1)), legal, secs(ph.Total()), secs(t4.Sub(t3)), secs(t5.Sub(t4)))
	}
	if len(walls) > 0 {
		opStats(res, o, walls, cells, 1)
	}
	if o.traced {
		perOp(layers, tracedOps)
		finishStatRatios(layers)
		layers["obs.overhead_frac"] = median(tracedWalls)/median(walls) - 1
		res.counters["core.mll_calls"] = layers["core.mll_calls"]
		res.counters["core.insertion_points"] = layers["core.insertion_points"]
	}

	// Gate: every op wrote the same bytes, and they re-read to the same
	// placement, which verifies clean with every cell placed.
	for i, out := range outs {
		if out != outs[0] {
			res.fail("op %d output differs from op 0 (checksum %016x vs %016x)", i, out.checksum, outs[0].checksum)
		}
	}
	in, _, err := iodesign.Read(bytes.NewReader(input))
	if err != nil {
		return nil, fmt.Errorf("gate: read input: %w", err)
	}
	d, err := checkPlacement(last.Bytes(), outs[len(outs)-1].checksum)
	if err != nil {
		res.fail("output: %v", err)
		return res, nil
	}
	_, res.e2e["avg_disp_sites"] = d.TotalDispSites()
	res.e2e["delta_hpwl_pct"] = hpwlDeltaPct(evalNetlist(in, o.seed), in, d)
	o.logf("large_200k gate: checksum %016x, avg disp %.17g sites, ΔHPWL %.17g%%",
		outs[0].checksum, res.e2e["avg_disp_sites"], res.e2e["delta_hpwl_pct"])
	return res, nil
}

// addStats accumulates the engine's activity counters.
func addStats(layers map[string]float64, st core.Stats) {
	layers["core.mll_calls"] += float64(st.MLLCalls)
	layers["core.direct_placements"] += float64(st.DirectPlacements)
	layers["core.retry_rounds"] += float64(st.RetryRounds)
	layers["core.cells_pushed"] += float64(st.CellsPushed)
	layers["core.insertion_points"] += float64(st.InsertionPoints)
	layers["core.candidates_pruned"] += float64(st.CandidatesPruned)
	layers["core.cache_lookups"] += float64(st.ExtractCacheHits + st.ExtractCacheMisses + st.ExtractCacheInvalidations)
	layers["core.cache_hits"] += float64(st.ExtractCacheHits)
}

// finishStatRatios turns the accumulated search and cache counts into the
// reported ratios and drops the helper entries.
func finishStatRatios(layers map[string]float64) {
	if d := layers["core.candidates_pruned"] + layers["core.insertion_points"]; d > 0 {
		layers["core.prune_ratio"] = layers["core.candidates_pruned"] / d
	}
	if d := layers["core.cache_lookups"]; d > 0 {
		layers["core.cache_hit_ratio"] = layers["core.cache_hits"] / d
	}
	if d := layers["sched.batches"]; d > 0 {
		layers["sched.cells_per_batch"] = layers["sched.batched"] / d
	}
	for _, k := range []string{"core.candidates_pruned", "core.cache_hits", "sched.batches", "sched.batched"} {
		delete(layers, k)
	}
}

// perOp divides every accumulated layer by the op count.
func perOp(layers map[string]float64, ops int) {
	if ops == 0 {
		return
	}
	for k := range layers {
		layers[k] /= float64(ops)
	}
}
