package gp

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/netlist"
)

// The global-placement golden pins Place's output bit for bit: per run,
// Stats.Iters, the bits of Stats.HPWL and Stats.PeakUtil, and an FNV-1a
// 64 over every cell's GX/GY bits. The legalized goldens of
// internal/experiments see GP only through snapping, which can hide a
// last-bit change in GX that ΔHPWL would show.
//
// Regenerate testdata/golden_gp.txt after an intentional change to the
// placer with:
//
//	go test ./internal/gp -run TestGoldenGlobalPlace -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_gp.txt from this run")

const goldenFile = "testdata/golden_gp.txt"

// goldenRun is one pinned Place call; bench builds a fresh design.
type goldenRun struct {
	name  string
	bench func() *bengen.Benchmark
	cfg   Config
}

// goldenRuns lists the pinned runs: the Table-1 suite at scale 400,
// matrix_mult_1 at scale 50 (a jobs_table1 input), the fixed-cell and
// pad-pin design, and one run without the rough-legalization postpass.
func goldenRuns() []goldenRun {
	var runs []goldenRun
	add := func(name string, spec bengen.Spec, cfg Config) {
		runs = append(runs, goldenRun{name, func() *bengen.Benchmark { return bengen.Generate(spec) }, cfg})
	}
	for _, spec := range bengen.Table1Specs(400) {
		add(spec.Name+"@400", spec, Config{Seed: spec.Seed})
		if spec.Name == "fft_1" {
			add(spec.Name+"@400/skip-rough", spec, Config{Seed: spec.Seed, SkipRough: true})
		}
	}
	for _, spec := range bengen.Table1Specs(50) {
		if spec.Name == "matrix_mult_1" {
			add(spec.Name+"@50", spec, Config{Seed: spec.Seed})
		}
	}
	runs = append(runs, goldenRun{"fixed-pads", fixedPadBench, Config{Seed: 3}})
	return runs
}

// fixedPadBench is a generated design that reaches the placer's
// fixed-pin branches, which no Table-1 design does: every ninth cell is
// fixed and placed, every fifth net gains a pad pin on the die's top or
// bottom edge, and three nets more join a pad to a fixed cell, list one
// movable cell twice, and hold a single pin.
func fixedPadBench() *bengen.Benchmark {
	b := bengen.Generate(bengen.Spec{Name: "fixed-pads", NumCells: 1200, Density: 0.55, Seed: 23})
	d, nl := b.D, b.NL
	bb := d.Bounds()
	var fixed design.CellID = design.NoCell
	for i := 0; i < len(d.Cells); i += 9 {
		c := &d.Cells[i]
		d.Place(c.ID, bb.X+(i*37)%(bb.W-c.W+1), bb.Y+(i*13)%(bb.H-c.H+1))
		c.Fixed = true
		fixed = c.ID
	}
	for ni := 0; ni < len(nl.Nets); ni += 5 {
		y := bb.Y
		if ni%10 == 0 {
			y = bb.Y2()
		}
		pad := netlist.Pin{Cell: design.NoCell, DX: float64(bb.X + (ni*29)%bb.W), DY: float64(y)}
		nl.Nets[ni].Pins = append(nl.Nets[ni].Pins, pad)
	}
	nl.AddNet("pad-fixed", netlist.Pin{Cell: design.NoCell, DX: float64(bb.X), DY: float64(bb.Y)},
		netlist.Pin{Cell: fixed, DX: 1, DY: 0.5})
	nl.AddNet("twice", netlist.Pin{Cell: 1, DX: 0.5, DY: 0.5}, netlist.Pin{Cell: 1, DX: 1.5, DY: 0.5},
		netlist.Pin{Cell: 2, DX: 0.5, DY: 0.5})
	nl.AddNet("single", netlist.Pin{Cell: 4, DX: 0.5, DY: 0.5})
	nl.BuildIndex(len(d.Cells))
	return b
}

// goldenLine formats one run's result as its golden line.
func goldenLine(name string, st Stats, d *design.Design) string {
	h := fnv.New64a()
	var buf [16]byte
	for i := range d.Cells {
		c := &d.Cells[i]
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(c.GX))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(c.GY))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s %d %016x %016x %016x", name, st.Iters,
		math.Float64bits(st.HPWL), math.Float64bits(st.PeakUtil), h.Sum64())
}

// TestGoldenGlobalPlace places every golden run and compares its line
// with the pinned one.
func TestGoldenGlobalPlace(t *testing.T) {
	var got []string
	for _, r := range goldenRuns() {
		b := r.bench()
		st := Place(b.D, b.NL, r.cfg)
		got = append(got, goldenLine(r.name, st, b.D))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		text := "# Global placements: name, Stats.Iters, Stats.HPWL and Stats.PeakUtil bits,\n" +
			"# FNV-1a 64 over every cell's GX/GY bits (hex).\n" +
			"# Pinned by TestGoldenGlobalPlace; regenerate with -update-golden.\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", goldenFile, len(got))
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d runs, this run %d", len(want), len(got))
	}
	for _, line := range got {
		name, _, _ := strings.Cut(line, " ")
		if want[name] != line {
			t.Errorf("%s:\n got %s\nwant %s", name, line, want[name])
		}
	}
}

// readGolden maps each pinned run's name to its golden line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
