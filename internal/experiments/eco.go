package experiments

// The incremental (ECO) legalization benchmark (docs/PERFORMANCE.md §9):
// synthetic designs swept over size × delta fraction, comparing a
// session delta batch (core.Session.ApplyDelta — relegalize only the
// perturbed neighborhood) against full relegalization of the same edit
// from scratch. Every incremental run is verified legal, and a run that
// fails never contributes a speedup. The run also records the fixed-point
// oracle, which holds by construction (a full pass places only unplaced
// cells, and a session leaves none); golden_sessions.txt, not this
// benchmark, pins which legal placement a batch produces. The JSON
// artifact (BENCH_eco.json) is regenerated by `make bench-json`.
//
// Timing is deliberately conservative toward the incremental side: the
// full baseline times only LegalizeBestEffort over the edited input
// (legalizer construction excluded), while the incremental side times
// ApplyDelta end to end, retries included.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
)

// EcoConfig controls an ECO benchmark run.
type EcoConfig struct {
	// Sizes are the synthetic design cell counts (bengen.GenerateSized);
	// empty defaults to [5000, 20000].
	Sizes []int
	// DeltaFracs are the perturbed-cell fractions per batch; empty
	// defaults to [0.001, 0.01, 0.05].
	DeltaFracs []float64
	// Repeats is the min-of-N timing repetition count. <= 0 means 3.
	Repeats int
	// Seed offsets the generator and perturbation seeds.
	Seed     int64
	Progress io.Writer
	Ctx      context.Context
}

func (c *EcoConfig) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c *EcoConfig) defaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{5000, 20000}
	}
	if len(c.DeltaFracs) == 0 {
		c.DeltaFracs = []float64{0.001, 0.01, 0.05}
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
}

// EcoRun is one (design, delta fraction) measurement.
type EcoRun struct {
	DeltaFrac float64 `json:"delta_frac"`
	Deltas    int     `json:"deltas"`
	// WallIncremental is the best-of-Repeats ApplyDelta wall time.
	WallIncrementalSeconds float64 `json:"wall_incremental_seconds"`
	// WallFull is the best-of-Repeats full-relegalization wall time over
	// the identically edited input.
	WallFullSeconds float64 `json:"wall_full_seconds"`
	// SpeedupVsFull = WallFull / WallIncremental, gated by SpeedupValid
	// (zero when invalid; the wall times above are always reported).
	SpeedupVsFull float64 `json:"speedup_vs_full"`
	SpeedupValid  bool    `json:"speedup_valid"`
	// Legal: verify.Check found zero violations on the incremental result.
	Legal bool `json:"legal"`
	// FixedPoint: full legalization over the incremental result was a
	// no-op (placement checksum unchanged) — the paper-faithful oracle.
	FixedPoint bool `json:"fixed_point"`
	// Dirty-cell accounting from the measured batch.
	DirtyCells   int     `json:"dirty_cells"`
	Retries      int     `json:"retries"`
	Checksum     string  `json:"checksum"`
	AvgDispSites float64 `json:"avg_disp_sites"`
	Err          string  `json:"err,omitempty"`
}

// EcoBench is all runs of one synthetic design.
type EcoBench struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	// InitialLegalizeSeconds is the from-scratch legalization that seeds
	// the session — context for the full-relegalization column.
	InitialLegalizeSeconds float64  `json:"initial_legalize_seconds"`
	Runs                   []EcoRun `json:"runs"`
}

// EcoReport is the BENCH_eco.json document.
type EcoReport struct {
	SchemaVersion int    `json:"schema_version"`
	Generated     string `json:"generated"`
	NumCPU        int    `json:"num_cpu"`
	GoMaxProcs    int    `json:"go_max_procs"`
	// SpeedupValid gates every speedup in the document: false on a
	// single-CPU machine, where wall times are the only honest signal.
	SpeedupValid bool       `json:"speedup_valid"`
	Sizes        []int      `json:"sizes"`
	DeltaFracs   []float64  `json:"delta_fracs"`
	Repeats      int        `json:"repeats"`
	Benches      []EcoBench `json:"benches"`
}

// ecoDeltas builds a deterministic perturbation batch: n distinct cells
// moved to jittered targets near their legal positions (the classic ECO
// shape — local engineering changes, not a re-placement).
func ecoDeltas(d *design.Design, n int, seed int64) []core.Delta {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]design.CellID, 0, len(d.Cells))
	for i := range d.Cells {
		if !d.Cells[i].Fixed && !d.Cells[i].Dead {
			ids = append(ids, design.CellID(i))
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if n > len(ids) {
		n = len(ids)
	}
	deltas := make([]core.Delta, 0, n)
	for _, id := range ids[:n] {
		c := &d.Cells[id]
		deltas = append(deltas, core.Delta{
			Op:   core.DeltaMove,
			Cell: id,
			TX:   float64(c.X) + float64(rng.Intn(41)-20),
			TY:   float64(c.Y) + float64(rng.Intn(9)-4),
		})
	}
	return deltas
}

// RunEco measures incremental vs full relegalization across the
// size × fraction sweep.
func RunEco(cfg EcoConfig) EcoReport {
	cfg.defaults()
	rep := EcoReport{
		SchemaVersion: BenchSchemaVersion,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		SpeedupValid:  runtime.NumCPU() > 1,
		Sizes:         cfg.Sizes,
		DeltaFracs:    cfg.DeltaFracs,
		Repeats:       cfg.Repeats,
	}
	if cfg.Progress != nil && !rep.SpeedupValid {
		fmt.Fprintf(cfg.Progress, "warning: single-CPU machine — speedups suppressed (speedup_valid: false); wall times remain comparable\n")
	}
	for i, size := range cfg.Sizes {
		spec := bengen.SizeSpec{
			Name:     fmt.Sprintf("sweep_%d", size),
			NumCells: size,
			Density:  0.6,
			Seed:     int64(9000+i) + cfg.Seed,
		}
		base := bengen.GenerateSized(spec)
		eb := EcoBench{Name: spec.Name, Cells: len(base.Cells)}

		// Seed state: one from-scratch legalization whose result every
		// run perturbs. A failure here voids the whole bench.
		legal := base.Clone()
		c := core.DefaultConfig()
		c.Seed = 1 + cfg.Seed
		l, err := core.NewLegalizer(legal, c)
		var initErr error
		if err != nil {
			initErr = err
		} else {
			start := time.Now()
			r, lerr := l.LegalizeBestEffort(cfg.ctx())
			eb.InitialLegalizeSeconds = time.Since(start).Seconds()
			if lerr != nil {
				initErr = lerr
			} else if len(r.Failed) > 0 {
				initErr = fmt.Errorf("initial legalization left %d failures", len(r.Failed))
			}
		}
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-14s initial  t=%.3fs err=%v\n", spec.Name, eb.InitialLegalizeSeconds, initErr)
		}
		for _, frac := range cfg.DeltaFracs {
			if initErr != nil {
				eb.Runs = append(eb.Runs, EcoRun{DeltaFrac: frac, Err: initErr.Error()})
				continue
			}
			run := runEcoOnce(legal, cfg, frac)
			run.SpeedupValid = rep.SpeedupValid && run.Legal && run.FixedPoint && run.Err == ""
			if run.SpeedupValid && run.WallIncrementalSeconds > 0 {
				run.SpeedupVsFull = run.WallFullSeconds / run.WallIncrementalSeconds
			}
			eb.Runs = append(eb.Runs, run)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-14s frac=%.3f deltas=%d t(inc)=%.4fs t(full)=%.3fs legal=%v fixed=%v err=%q\n",
					spec.Name, frac, run.Deltas, run.WallIncrementalSeconds, run.WallFullSeconds,
					run.Legal, run.FixedPoint, run.Err)
			}
		}
		rep.Benches = append(rep.Benches, eb)
	}
	return rep
}

// runEcoOnce measures one delta fraction: best-of-Repeats for both the
// incremental and the full path, then verification on the final
// incremental result.
func runEcoOnce(legal *design.Design, cfg EcoConfig, frac float64) EcoRun {
	n := int(frac * float64(len(legal.Cells)))
	if n < 1 {
		n = 1
	}
	deltas := ecoDeltas(legal, n, 7700+int64(frac*1e6)+cfg.Seed)
	run := EcoRun{DeltaFrac: frac, Deltas: len(deltas)}

	// Incremental path. Each repeat replays the same batch on a fresh
	// clone of the legal seed (ApplyDelta mutates), timing ApplyDelta
	// alone; legalizer and session construction are session-lifetime
	// costs paid once, not per batch.
	var lastSes *core.Session
	for rep := 0; rep < cfg.Repeats; rep++ {
		d := legal.Clone()
		c := core.DefaultConfig()
		c.Seed = 1 + cfg.Seed
		l, err := core.NewLegalizer(d, c)
		if err != nil {
			run.Err = err.Error()
			return run
		}
		ses, err := core.NewSession(l)
		if err != nil {
			run.Err = err.Error()
			return run
		}
		start := time.Now()
		drep, err := ses.ApplyDelta(cfg.ctx(), deltas)
		wall := time.Since(start).Seconds()
		if err != nil {
			run.Err = err.Error()
			return run
		}
		if rep == 0 || wall < run.WallIncrementalSeconds {
			run.WallIncrementalSeconds = wall
		}
		run.DirtyCells = drep.DirtyCells
		run.Retries = drep.Retries
		var disp float64
		for j, res := range drep.Results {
			disp += math.Abs(float64(res.X)-deltas[j].TX) + math.Abs(float64(res.Y)-deltas[j].TY)
		}
		if len(drep.Results) > 0 {
			run.AvgDispSites = disp / float64(len(drep.Results))
		}
		run.Checksum = fmt.Sprintf("%016x", d.PlacementChecksum())
		lastSes = ses
	}

	// Full path: the identical edit expressed as a from-scratch input —
	// every cell's input position is its current legal spot, the moved
	// cells get their delta targets — then a complete legalization.
	for rep := 0; rep < cfg.Repeats; rep++ {
		d := legal.Clone()
		for i := range d.Cells {
			if d.Cells[i].Fixed || d.Cells[i].Dead {
				continue
			}
			d.Cells[i].GX = float64(d.Cells[i].X)
			d.Cells[i].GY = float64(d.Cells[i].Y)
		}
		for _, dl := range deltas {
			d.Cells[dl.Cell].GX = dl.TX
			d.Cells[dl.Cell].GY = dl.TY
		}
		d.ResetPlacement()
		c := core.DefaultConfig()
		c.Seed = 1 + cfg.Seed
		l, err := core.NewLegalizer(d, c)
		if err != nil {
			run.Err = err.Error()
			return run
		}
		start := time.Now()
		if _, err := l.LegalizeBestEffort(cfg.ctx()); err != nil {
			run.Err = err.Error()
			return run
		}
		wall := time.Since(start).Seconds()
		if rep == 0 || wall < run.WallFullSeconds {
			run.WallFullSeconds = wall
		}
	}

	// Verification on the last incremental result: legality and the
	// fixed-point oracle (this runs a full pass — never timed).
	run.Legal = len(lastSes.Verify(1)) == 0
	fp, err := lastSes.FixedPoint(cfg.ctx())
	if err != nil {
		run.Err = err.Error()
		return run
	}
	run.FixedPoint = fp
	return run
}

// WriteEcoJSON writes the report as indented JSON.
func WriteEcoJSON(w io.Writer, rep EcoReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// PrintEco renders the report as a human-readable table.
func PrintEco(w io.Writer, rep EcoReport) {
	fmt.Fprintf(w, "Incremental (ECO) legalization benchmark (NumCPU %d, GOMAXPROCS %d):\n", rep.NumCPU, rep.GoMaxProcs)
	if !rep.SpeedupValid {
		fmt.Fprintf(w, "single-CPU machine: speedups suppressed (speedup_valid: false); compare wall times directly\n")
	}
	fmt.Fprintf(w, "%-14s %8s %9s %8s %10s %10s %8s %6s %6s\n",
		"Design", "Cells", "frac", "deltas", "t(inc)", "t(full)", "speedup", "legal", "fixed")
	for _, b := range rep.Benches {
		for _, r := range b.Runs {
			speedup := "-"
			if r.SpeedupValid {
				speedup = fmt.Sprintf("%.1fx", r.SpeedupVsFull)
			}
			fmt.Fprintf(w, "%-14s %8d %9.3f %8d %9.4fs %9.3fs %8s %6v %6v\n",
				b.Name, b.Cells, r.DeltaFrac, r.Deltas,
				r.WallIncrementalSeconds, r.WallFullSeconds, speedup, r.Legal, r.FixedPoint)
		}
	}
}
