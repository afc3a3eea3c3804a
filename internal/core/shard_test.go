package core_test

// Equivalence, determinism and chaos tests for the spatially-sharded
// round driver. The byte-identity contract (docs/PERFORMANCE.md §7):
// for any shard count and search mode, placements, failure sets,
// verifier output and Stats match the serial run exactly.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/faultinject"
	"mrlegal/internal/verify"
)

// legalizeWithShards is legalizeWithWorkers for an explicit shard count
// with Workers at its serial default.
func legalizeWithShards(t *testing.T, d *design.Design, cfg core.Config, shards int) runOutcome {
	t.Helper()
	cfg.Shards = shards
	return legalizeWithWorkers(t, d, cfg, 0)
}

// assertShardMatchesSerial compares placements, failure sets, verifier
// output, round counts and Stats.
func assertShardMatchesSerial(t *testing.T, name string, serial, shard runOutcome, shards int) {
	t.Helper()
	if !bytes.Equal(serial.placement, shard.placement) {
		t.Errorf("%s: placements differ between serial and Shards=%d", name, shards)
	}
	if serial.failures != shard.failures {
		t.Errorf("%s: failure sets differ:\nserial:\n%sshards=%d:\n%s",
			name, serial.failures, shards, shard.failures)
	}
	if serial.violations != shard.violations {
		t.Errorf("%s: verify.Check results differ:\nserial:\n%sshards=%d:\n%s",
			name, serial.violations, shards, shard.violations)
	}
	if serial.rounds != shard.rounds {
		t.Errorf("%s: rounds differ: serial %d vs shards=%d %d",
			name, serial.rounds, shards, shard.rounds)
	}
	if serial.stats != shard.stats {
		t.Errorf("%s: stats differ:\nserial   %+v\nshards=%d %+v",
			name, serial.stats, shards, shard.stats)
	}
}

// shardTestDesign builds a compact but shard-worthy design directly
// (GenerateSized needs no netlist or global-place pass, so the sweep
// over K × mode stays fast).
func shardTestDesign(n int, seed int64) *design.Design {
	return bengen.GenerateSized(bengen.SizeSpec{
		Name: fmt.Sprintf("shard-%d-%d", n, seed), NumCells: n, Density: 0.6, Seed: seed,
	})
}

// TestShardMatchesSerialAcrossK is the seam-reconciliation property
// test: every shard count and both search modes must reproduce the
// serial placement and Stats exactly.
func TestShardMatchesSerialAcrossK(t *testing.T) {
	n := 2500
	if testing.Short() {
		n = 900
	}
	base := shardTestDesign(n, 77)
	for _, exhaustive := range []bool{false, true} {
		mode := "best-first"
		if exhaustive {
			mode = "exhaustive"
		}
		// "cache-off" keeps the subtest names this sweep had while the
		// extraction cache was a second axis; the cache has since been
		// removed, so every leg runs the cache-off program.
		t.Run(mode+"/cache-off", func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Seed = 5
			cfg.ExhaustiveSearch = exhaustive
			serial := legalizeWithWorkers(t, base.Clone(), cfg, 1)
			for _, k := range []int{1, 2, 4, 8} {
				shard := legalizeWithShards(t, base.Clone(), cfg, k)
				assertShardMatchesSerial(t, fmt.Sprintf("%s/k=%d", mode, k), serial, shard, k)
			}
		})
	}
}

// TestShardZeroClaimTraffic pins the shard driver's defining property:
// no cell goes through per-cell claim scheduling, and the overwhelming
// share of cells legalize as interior cells.
func TestShardZeroClaimTraffic(t *testing.T) {
	d := shardTestDesign(1200, 31)
	cfg := core.DefaultConfig()
	cfg.Seed = 2
	cfg.Shards = 4
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ctr := l.SchedCounters(); ctr.Dispatched != 0 || ctr.Deferred != 0 ||
		ctr.Invalidated != 0 || ctr.Batches != 0 || ctr.Batched != 0 {
		t.Fatalf("claim scheduler counters moved in shard mode: %+v", ctr)
	}
	sctr := l.ShardCounters()
	if sctr.Interior == 0 {
		t.Fatal("no interior cells: sharding degenerated to a serial seam pass")
	}
	if sctr.SeamDispatched > sctr.Interior {
		t.Fatalf("seam pass dominates: interior=%d seam-dispatched=%d", sctr.Interior, sctr.SeamDispatched)
	}
	if sctr.SeamDeferred != 0 {
		t.Fatalf("sequential seam pass deferred %d cells", sctr.SeamDeferred)
	}
}

// TestShardStatsDeterministicRepeat: Stats in shard mode are a pure
// function of (input, config) — two identical runs must agree exactly,
// placements included.
func TestShardStatsDeterministicRepeat(t *testing.T) {
	base := shardTestDesign(1000, 13)
	cfg := core.DefaultConfig()
	cfg.Seed = 7
	a := legalizeWithShards(t, base.Clone(), cfg, 4)
	b := legalizeWithShards(t, base.Clone(), cfg, 4)
	if !bytes.Equal(a.placement, b.placement) {
		t.Error("repeat shard runs placed differently")
	}
	if a.stats != b.stats {
		t.Errorf("repeat shard runs produced different stats:\n%+v\n%+v", a.stats, b.stats)
	}
	if a.failures != b.failures || a.rounds != b.rounds {
		t.Error("repeat shard runs disagree on failures or rounds")
	}
}

// TestShardChaosConsistent injects audit failures (forcing per-shard
// batch rollbacks mid-round) plus insert faults, and requires the grid
// and design to come out consistent — the rollback path must leave no
// shard half-committed. Serial equality is not required here: per-shard
// audit cadence is a documented deviation when AuditEvery > 0.
func TestShardChaosConsistent(t *testing.T) {
	base := shardTestDesign(800, 23)
	for _, k := range []int{2, 4} {
		cfg := core.DefaultConfig()
		cfg.Seed = 3
		cfg.Shards = k
		cfg.AuditEvery = 11
		inj := &faultinject.Injector{FailInsertEvery: 19, FailAuditEvery: 4}
		cfg.Faults = inj
		d := base.Clone()
		l, err := core.NewLegalizer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := l.LegalizeBestEffort(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if inj.InjectedAuditFailures == 0 || inj.InjectedInsertFailures == 0 {
			t.Fatalf("shards=%d: fault classes did not fire: %+v", k, inj)
		}
		if rep.AuditRollbacks == 0 {
			t.Fatalf("shards=%d: no audit rollbacks despite injected audit failures", k)
		}
		if err := l.G.CheckConsistency(); err != nil {
			t.Fatalf("shards=%d: grid inconsistent after chaos run: %v", k, err)
		}
		for _, v := range verify.Check(d, verify.Options{
			RequirePlaced:  false,
			PowerAlignment: cfg.PowerAlign,
		}, 0) {
			t.Errorf("shards=%d: violation after chaos run: %s", k, v)
		}
	}
}

// TestShardRespectsCancellation: context cancellation mid-run must
// surface ErrCanceled per cell and keep the grid consistent.
func TestShardRespectsCancellation(t *testing.T) {
	d := shardTestDesign(600, 9)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Shards = 4
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := l.LegalizeBestEffort(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) == 0 {
		t.Fatal("canceled run reported no failures")
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatalf("grid inconsistent after canceled run: %v", err)
	}
}
