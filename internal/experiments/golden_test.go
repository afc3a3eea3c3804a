package experiments

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/verify"
)

// The golden determinism suite pins one placement checksum per Table-1
// benchmark and recomputes it under every scheduling and search mode the
// engine claims is result-identical: (workers ∈ {1, 4} ∪ shards ∈ {1, 4})
// × {best-first, exhaustive} search. Any divergence — between
// configurations, between machines, or against the pinned file — is a
// determinism regression.
//
// Regenerate testdata/golden_checksums.txt after an intentional
// algorithmic change with:
//
//	go test ./internal/experiments -run TestGoldenPlacements -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_checksums.txt from this run")

// goldenScale keeps the 20-benchmark × 4-configuration sweep fast enough
// for CI race mode while still exercising multi-row cells and retries.
const goldenScale = 800

const goldenFile = "testdata/golden_checksums.txt"

// goldenConfigs are the nine configurations whose placements must agree.
func goldenConfigs() []struct {
	tag string
	cfg core.Config
} {
	var out []struct {
		tag string
		cfg core.Config
	}
	add := func(tag string, cfg core.Config) {
		out = append(out, struct {
			tag string
			cfg core.Config
		}{tag, cfg})
	}
	mode := func(exhaustive bool) string {
		if exhaustive {
			return "exhaustive"
		}
		return "best-first"
	}
	for _, workers := range []int{1, 4} {
		for _, exhaustive := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			cfg.ExhaustiveSearch = exhaustive
			add(fmt.Sprintf("w%d/%s", workers, mode(exhaustive)), cfg)
		}
	}
	for _, shards := range []int{1, 4} {
		for _, exhaustive := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.Shards = shards
			cfg.ExhaustiveSearch = exhaustive
			add(fmt.Sprintf("s%d/%s", shards, mode(exhaustive)), cfg)
		}
	}
	// Empty-constraint-set byte-identity: a non-nil Set composing zero
	// plugins must reproduce the unconstrained placements exactly — the
	// plugin layer wired but enforcing nothing stays on the original
	// code paths (docs/CONSTRAINTS.md).
	{
		empty, err := constraint.NewSet()
		if err != nil {
			panic(err)
		}
		cfg := core.DefaultConfig()
		cfg.Constraints = empty
		add("w1/empty-constraints", cfg)
	}
	return out
}

func readGolden(t *testing.T, goldenFile string) map[string]uint64 {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	defer f.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("golden file: malformed line %q", line)
		}
		v, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			t.Fatalf("golden file: bad checksum on %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGolden(t *testing.T, goldenFile, header string, sums map[string]uint64) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(header)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %016x\n", n, sums[n])
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenPlacements legalizes every Table-1 benchmark under all four
// configurations and checks (a) the four checksums agree — placements are
// byte-identical across worker counts and search modes — and (b) they
// match the pinned golden values.
func TestGoldenPlacements(t *testing.T) {
	specs := bengen.Table1Specs(goldenScale)
	configs := goldenConfigs()

	sums := make(map[string]uint64, len(specs))
	for _, spec := range specs {
		p := Prepare(spec, 0)
		var ref uint64
		for i, gc := range configs {
			d := p.Bench.D.Clone()
			cfg := gc.cfg
			cfg.Seed = 1
			l, err := core.NewLegalizer(d, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, gc.tag, err)
			}
			if err := l.Legalize(); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, gc.tag, err)
			}
			sum := d.PlacementChecksum()
			if i == 0 {
				ref = sum
			} else if sum != ref {
				t.Errorf("%s: %s checksum %016x differs from %s checksum %016x",
					spec.Name, gc.tag, sum, configs[0].tag, ref)
			}
		}
		sums[spec.Name] = ref
	}

	if *updateGolden {
		header := fmt.Sprintf("# Placement checksums (FNV-1a 64, hex) for the Table-1 set at scale %d.\n", goldenScale) +
			"# Pinned by TestGoldenPlacements; regenerate with -update-golden.\n"
		writeGolden(t, goldenFile, header, sums)
		t.Logf("wrote %s (%d benchmarks)", goldenFile, len(sums))
		return
	}
	compareGolden(t, goldenFile, sums)
}

// compareGolden checks a run's checksums against a pinned golden file.
func compareGolden(t *testing.T, goldenFile string, sums map[string]uint64) {
	t.Helper()
	want := readGolden(t, goldenFile)
	if len(want) != len(sums) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(sums))
	}
	for name, sum := range sums {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from golden file", name)
		} else if sum != w {
			t.Errorf("%s: checksum %016x, golden %016x", name, sum, w)
		}
	}
}

const goldenConstraintFile = "testdata/golden_constraints.txt"

// goldenConstraintScale is coarser than goldenScale: the constraint
// suite multiplies the benchmark sweep by four plugin configurations,
// so it runs on smaller instances to keep CI race mode fast. The core
// differential suite (internal/core/constraint_equiv_test.go) covers
// the full workers × shards × search-mode matrix; the golden file pins
// the placements against silent drift.
const goldenConstraintScale = 2000

// goldenConstraintSets are the plugin configurations pinned per
// benchmark: each shipped plugin alone, then all three composed. The
// fence covers the central ~2/3 of the die and confines cells 3+ rows
// tall.
func goldenConstraintSets(t *testing.T, d *design.Design) []struct {
	name string
	set  *constraint.Set
} {
	t.Helper()
	rows := d.NumRows()
	span := d.Rows[0].Span
	w := span.Hi - span.Lo
	fence, err := constraint.NewFence(geom.Rect{
		X: span.Lo + w/6,
		Y: rows / 6,
		W: w - 2*(w/6),
		H: rows - 2*(rows/6),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	spacing, err := constraint.NewSpacing(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := constraint.NewTPL(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cons ...constraint.Constraint) *constraint.Set {
		s, err := constraint.NewSet(cons...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []struct {
		name string
		set  *constraint.Set
	}{
		{"fence", mk(fence)},
		{"spacing", mk(spacing)},
		{"tpl", mk(tpl)},
		{"composed", mk(fence, spacing, tpl)},
	}
}

// TestGoldenConstraintPlacements pins one placement checksum per
// Table-1 benchmark × plugin configuration, recomputed under Workers=1
// and Workers=4 (which must agree), and requires every run to pass the
// plugins' verify.Check oracles with zero violations. Regenerate
// testdata/golden_constraints.txt with -update-golden.
func TestGoldenConstraintPlacements(t *testing.T) {
	specs := bengen.Table1Specs(goldenConstraintScale)
	sums := make(map[string]uint64)
	for _, spec := range specs {
		p := Prepare(spec, 0)
		for _, cs := range goldenConstraintSets(t, p.Bench.D) {
			key := spec.Name + "/" + cs.name
			var ref uint64
			for i, workers := range []int{1, 4} {
				d := p.Bench.D.Clone()
				cfg := core.DefaultConfig()
				cfg.Seed = 1
				cfg.Workers = workers
				cfg.Constraints = cs.set
				l, err := core.NewLegalizer(d, cfg)
				if err != nil {
					t.Fatalf("%s w%d: %v", key, workers, err)
				}
				rep, err := l.LegalizeBestEffort(context.Background())
				if err != nil {
					t.Fatalf("%s w%d: %v", key, workers, err)
				}
				for _, v := range verify.Check(d, verify.Options{
					RequirePlaced:  len(rep.Failed) == 0,
					PowerAlignment: cfg.PowerAlign,
					Extra:          cs.set.Checkers(),
				}, 0) {
					t.Errorf("%s w%d: %s", key, workers, v)
				}
				sum := d.PlacementChecksum()
				if i == 0 {
					ref = sum
				} else if sum != ref {
					t.Errorf("%s: w%d checksum %016x differs from w1 checksum %016x",
						key, workers, sum, ref)
				}
			}
			sums[key] = ref
		}
	}

	if *updateGolden {
		header := fmt.Sprintf("# Placement checksums (FNV-1a 64, hex): Table-1 set at scale %d x constraint-plugin configs.\n", goldenConstraintScale) +
			"# Pinned by TestGoldenConstraintPlacements; regenerate with -update-golden.\n"
		writeGolden(t, goldenConstraintFile, header, sums)
		t.Logf("wrote %s (%d entries)", goldenConstraintFile, len(sums))
		return
	}
	compareGolden(t, goldenConstraintFile, sums)
}
