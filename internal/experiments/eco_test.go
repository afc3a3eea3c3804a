package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
)

func TestRunEcoSmoke(t *testing.T) {
	rep := RunEco(EcoConfig{Sizes: []int{800}, DeltaFracs: []float64{0.01}, Repeats: 1})
	if rep.SchemaVersion != BenchSchemaVersion {
		t.Fatalf("schema version = %d", rep.SchemaVersion)
	}
	if len(rep.Benches) != 1 || len(rep.Benches[0].Runs) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	run := rep.Benches[0].Runs[0]
	if run.Err != "" {
		t.Fatalf("run failed: %s", run.Err)
	}
	if !run.Legal || !run.FixedPoint {
		t.Fatalf("incremental result unverified: legal=%v fixed=%v", run.Legal, run.FixedPoint)
	}
	if run.Deltas != 8 {
		t.Fatalf("deltas = %d, want 1%% of 800", run.Deltas)
	}
	if run.WallIncrementalSeconds <= 0 || run.WallFullSeconds <= 0 {
		t.Fatalf("missing wall times: %+v", run)
	}
	// The honesty gate: speedups only on multi-CPU machines, and never
	// without verification. Wall times are reported either way.
	if run.SpeedupValid && rep.NumCPU <= 1 {
		t.Fatal("speedup_valid on a single-CPU machine")
	}
	if !run.SpeedupValid && run.SpeedupVsFull != 0 {
		t.Fatalf("ungated speedup %v", run.SpeedupVsFull)
	}

	var buf bytes.Buffer
	if err := WriteEcoJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back EcoReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Benches[0].Runs[0].Checksum != run.Checksum {
		t.Fatal("JSON roundtrip lost the checksum")
	}
	PrintEco(&buf, rep)
}

// TestEcoEquivalence is the CI equivalence smoke (docs/PERFORMANCE.md
// §9): on a Table-1 subset, an ECO session built over a legalized design
// must stay legal and pass the fixed-point oracle after a mixed delta
// batch.
func TestEcoEquivalence(t *testing.T) {
	specs := bengen.Table1Specs(800)
	subset := map[string]bool{"fft_a": true, "pci_bridge32_b": true}
	for _, spec := range specs {
		if !subset[spec.Name] {
			continue
		}
		name := spec.Name
		d := bengen.Generate(spec).D
		l, err := core.NewLegalizer(d, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
			t.Fatalf("%s: legalize: %v", name, err)
		}
		ses, err := core.NewSession(l)
		if err != nil {
			t.Fatalf("%s: session: %v", name, err)
		}
		deltas := ecoDeltas(d, 12, 42)
		deltas = append(deltas,
			core.Delta{Op: core.DeltaInsert, Master: 0, TX: deltas[0].TX, TY: deltas[0].TY},
			core.Delta{Op: core.DeltaDelete, Cell: deltas[1].Cell},
		)
		if _, err := ses.ApplyDelta(context.Background(), deltas); err != nil {
			t.Fatalf("%s: apply: %v", name, err)
		}
		if v := ses.Verify(4); len(v) != 0 {
			t.Fatalf("%s: %d violations after batch: %v", name, len(v), v[0])
		}
		fp, err := ses.FixedPoint(context.Background())
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !fp {
			t.Fatalf("%s: fixed-point oracle failed", name)
		}
	}
}
