package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

func TestRunShardSmoke(t *testing.T) {
	cfg := ShardConfig{Sizes: []int{800}, ShardCounts: []int{1, 4}}
	rep := RunShard(cfg)
	if rep.NumCPU != runtime.NumCPU() || rep.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Fatalf("dishonest machine stamping: %+v", rep)
	}
	if rep.SpeedupValid != (runtime.NumCPU() > 1) {
		t.Fatalf("speedup_valid = %v on a %d-CPU machine", rep.SpeedupValid, rep.NumCPU)
	}
	if len(rep.Benches) != 1 {
		t.Fatalf("benches = %d, want 1", len(rep.Benches))
	}
	b := rep.Benches[0]
	if b.Cells != 800 || b.SerialChecksum == "" || b.SerialWallSeconds <= 0 {
		t.Fatalf("serial baseline incomplete: %+v", b)
	}
	if len(b.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(b.Runs))
	}
	for _, r := range b.Runs {
		if r.Err != "" {
			t.Fatalf("shards=%d: %v", r.Shards, r.Err)
		}
		if !r.MatchesSerial {
			t.Fatalf("shards=%d: checksum %s does not match serial %s",
				r.Shards, r.Checksum, b.SerialChecksum)
		}
		// One shard is the serial loop; more run the shard driver.
		if r.Shards == 1 && r.Interior+r.Seam != 0 {
			t.Fatalf("shards=1: shard driver ran (interior %d, seam %d)", r.Interior, r.Seam)
		}
		if r.Shards > 1 && r.Interior == 0 {
			t.Fatalf("shards=%d: no interior cells recorded", r.Shards)
		}
		if r.SeamDeferred != 0 {
			t.Fatalf("shards=%d: sequential seam pass deferred %d cells", r.Shards, r.SeamDeferred)
		}
		if !rep.SpeedupValid && r.SpeedupVsSerial != 0 {
			t.Fatalf("shards=%d: speedup %v reported despite speedup_valid=false",
				r.Shards, r.SpeedupVsSerial)
		}
	}
	var buf bytes.Buffer
	if err := WriteShardJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back ShardReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	PrintShard(&buf, rep) // must not panic on a populated report
}

// TestParallelSpeedupGating pins the honest-methodology contract of the
// parallel (shard) speedup report on this machine: speedups appear iff
// the machine can actually run shards in parallel, and oversubscribed
// runs never report one.
func TestParallelSpeedupGating(t *testing.T) {
	over := runtime.NumCPU() + 1
	rep := RunShard(ShardConfig{Sizes: []int{800}, ShardCounts: []int{2, over}})
	if rep.SpeedupValid != (runtime.NumCPU() > 1) {
		t.Fatalf("report speedup_valid = %v with NumCPU %d", rep.SpeedupValid, rep.NumCPU)
	}
	for _, b := range rep.Benches {
		for _, r := range b.Runs {
			if r.Shards == over {
				if !r.Oversubscribed {
					t.Fatalf("%s shards=%d: not flagged oversubscribed", b.Name, r.Shards)
				}
				if r.SpeedupValid || r.SpeedupVsSerial != 0 {
					t.Fatalf("%s shards=%d: oversubscribed run reports speedup %v",
						b.Name, r.Shards, r.SpeedupVsSerial)
				}
			}
			if !rep.SpeedupValid && r.SpeedupVsSerial != 0 {
				t.Fatalf("%s shards=%d: speedup on single-CPU machine", b.Name, r.Shards)
			}
		}
	}
}
