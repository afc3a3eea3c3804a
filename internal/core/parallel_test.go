package core_test

// Driver-selection and equivalence tests for Config.Workers: 0 and 1 run
// the serial loop, a larger count runs the spatially-sharded driver with
// that many shards, and whatever the count, a seeded run must reproduce
// the serial placements, failure sets, verifier output and round count.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/gp"
	"mrlegal/internal/obs"
	"mrlegal/internal/sched"
	"mrlegal/internal/verify"
)

// placementSnapshot serializes every cell's placement state.
func placementSnapshot(d *design.Design) []byte {
	var buf bytes.Buffer
	for i := range d.Cells {
		c := &d.Cells[i]
		fmt.Fprintf(&buf, "%d %d %d %v %v\n", c.ID, c.X, c.Y, c.Placed, c.Orient)
	}
	return buf.Bytes()
}

// runOutcome captures everything the equivalence tests compare.
type runOutcome struct {
	placement  []byte
	stats      core.Stats
	failures   string
	violations string
	rounds     int
	audits     int
	rollbacks  int
	routing    sched.ShardCounters
}

// legalizeWithWorkers legalizes d at the given Workers count and checks
// that the driver the resolved shard count selects is the one that ran.
func legalizeWithWorkers(t *testing.T, d *design.Design, cfg core.Config, workers int) runOutcome {
	t.Helper()
	cfg.Workers = workers
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatalf("workers=%d: grid inconsistent: %v", workers, err)
	}
	k := cfg.Shards
	if k == 0 {
		k = workers
	}
	if sctr := l.ShardCounters(); (sctr.Interior+sctr.Seam > 0) != (k > 1) {
		t.Fatalf("workers=%d shards=%d: wrong driver ran (shard routing %+v)", workers, cfg.Shards, sctr)
	}
	if ctr := l.SchedCounters(); ctr != (sched.Counters{}) {
		t.Fatalf("workers=%d: claim scheduler counters moved: %+v", workers, ctr)
	}
	var fails bytes.Buffer
	for _, f := range rep.Failed {
		fmt.Fprintf(&fails, "%s\n", f)
	}
	var viols bytes.Buffer
	for _, v := range verify.Check(d, verify.Options{
		RequirePlaced:  len(rep.Failed) == 0,
		PowerAlignment: cfg.PowerAlign,
	}, 0) {
		fmt.Fprintf(&viols, "%s\n", v)
	}
	return runOutcome{
		placement:  placementSnapshot(d),
		stats:      l.Stats(),
		failures:   fails.String(),
		violations: viols.String(),
		rounds:     rep.Rounds,
		audits:     rep.AuditRuns,
		rollbacks:  rep.AuditRollbacks,
		routing:    l.ShardCounters(),
	}
}

// TestParallelMatchesSerialOnTable1 runs every Table-1 benchmark (scaled
// down) through the full generate → global-place → legalize flow with
// Workers=1 (serial) and Workers=4 (four shards) and requires fully
// legal, byte-identical outcomes with identical verifier output.
func TestParallelMatchesSerialOnTable1(t *testing.T) {
	scale := 1500
	if testing.Short() {
		scale = 4000
	}
	for _, spec := range bengen.Table1Specs(scale) {
		t.Run(spec.Name, func(t *testing.T) {
			b := bengen.Generate(spec)
			gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
			cfg := core.DefaultConfig()
			cfg.Seed = 3
			serial := legalizeWithWorkers(t, b.D.Clone(), cfg, 1)
			par := legalizeWithWorkers(t, b.D.Clone(), cfg, 4)
			assertShardMatchesSerial(t, spec.Name, serial, par, 4)
			if serial.failures != "" {
				t.Errorf("benchmark not fully placed:\n%s", serial.failures)
			}
			if serial.violations != "" {
				t.Errorf("legalized design has violations:\n%s", serial.violations)
			}
		})
	}
}

// TestParallelDeterminismAcrossWorkerCounts sweeps worker counts on one
// denser instance with audits enabled. Audit cadence is per shard, so
// only the audit bookkeeping may differ from the serial run.
func TestParallelDeterminismAcrossWorkerCounts(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "par-det", NumCells: 700, Density: 0.7, Seed: 21})
	cfg := core.DefaultConfig()
	cfg.Seed = 9
	cfg.AuditEvery = 23
	serial := legalizeWithWorkers(t, b.D.Clone(), cfg, 1)
	for _, workers := range []int{2, 4, 7} {
		par := legalizeWithWorkers(t, b.D.Clone(), cfg, workers)
		assertShardMatchesSerial(t, "par-det", serial, par, workers)
		if par.audits == 0 || par.rollbacks != 0 {
			t.Errorf("workers=%d: audits %d, rollbacks %d; want audits and no rollbacks", workers, par.audits, par.rollbacks)
		}
	}
}

// TestWorkersAutoSelection pins the default: DefaultConfig (Workers 0)
// legalizes a Table-1 design on the serial loop — no shard routing, no
// claim scheduling, and the round-workers gauge reads 1.
func TestWorkersAutoSelection(t *testing.T) {
	spec := bengen.Table1Specs(2000)[0]
	b := bengen.Generate(spec)
	gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
	cfg := core.DefaultConfig()
	if cfg.Workers != 0 || cfg.Shards != 0 {
		t.Fatalf("DefaultConfig workers=%d shards=%d, want 0 and 0", cfg.Workers, cfg.Shards)
	}
	o := obs.New(obs.Options{})
	cfg.Obs = o
	auto := legalizeWithWorkers(t, b.D.Clone(), cfg, 0)
	if g := o.Registry().Snapshot().Gauges["mrlegal_round_workers"]; g != 1 {
		t.Errorf("mrlegal_round_workers = %d, want 1", g)
	}
	cfg.Obs = nil
	serial := legalizeWithWorkers(t, b.D.Clone(), cfg, 1)
	assertShardMatchesSerial(t, spec.Name, serial, auto, 0)
	if auto.stats != serial.stats {
		t.Errorf("Workers=0 and Workers=1 stats differ:\n%+v\n%+v", auto.stats, serial.stats)
	}
}

// TestWorkersSelectShardDriver pins the mapping of Workers and Shards
// onto drivers: the shard count is Shards, or Workers when Shards is 0,
// and only a count above 1 runs the shard driver. Every combination
// reproduces the serial placement checksum.
func TestWorkersSelectShardDriver(t *testing.T) {
	base := shardTestDesign(1200, 17)
	cfg := core.DefaultConfig()
	cfg.Seed = 4
	d := base.Clone()
	legalizeWithWorkers(t, d, cfg, 1)
	want := d.PlacementChecksum()
	for _, tc := range []struct {
		workers, shards int
		sharded         bool
	}{
		{workers: 4, shards: 0, sharded: true},
		{workers: 0, shards: 3, sharded: true},
		{workers: 4, shards: 1, sharded: false},
		{workers: 0, shards: 0, sharded: false},
	} {
		c := cfg
		c.Shards = tc.shards
		d := base.Clone()
		out := legalizeWithWorkers(t, d, c, tc.workers)
		if (out.routing.Interior > 0) != tc.sharded {
			t.Errorf("workers=%d shards=%d: interior cells %d, want sharded=%v",
				tc.workers, tc.shards, out.routing.Interior, tc.sharded)
		}
		if got := d.PlacementChecksum(); got != want {
			t.Errorf("workers=%d shards=%d: checksum %016x, serial %016x", tc.workers, tc.shards, got, want)
		}
	}
}
