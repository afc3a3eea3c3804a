package experiments

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
)

// The mode and session goldens pin what golden_checksums.txt leaves
// open: the placements of the two shipped modes that are not
// result-identical to the default (ExactEval and relaxed power-rail
// alignment), and the placements an ECO session produces from a fixed
// delta sequence. Regenerate both files after an intentional change with
//
//	go test ./internal/experiments -run 'TestGoldenModes|TestGoldenSessions' -update-golden

const goldenModesFile = "testdata/golden_modes.txt"

// goldenModes are the configurations pinned per Table-1 benchmark in
// goldenModesFile, keyed by "<bench>/<tag>".
func goldenModes() []struct {
	tag string
	cfg core.Config
} {
	exact := core.DefaultConfig()
	exact.ExactEval = true
	relaxed := core.DefaultConfig()
	relaxed.PowerAlign = false
	return []struct {
		tag string
		cfg core.Config
	}{{"exact", exact}, {"relaxed", relaxed}}
}

// TestGoldenModes legalizes every Table-1 benchmark under ExactEval (the
// paper's exact evaluation ablation) and with power-rail alignment off
// (Table 1's right half) and checks the checksums against
// goldenModesFile.
func TestGoldenModes(t *testing.T) {
	sums := make(map[string]uint64)
	for _, spec := range bengen.Table1Specs(goldenScale) {
		p := Prepare(spec, 0)
		for _, m := range goldenModes() {
			key := spec.Name + "/" + m.tag
			d := p.Bench.D.Clone()
			cfg := m.cfg
			cfg.Seed = 1
			l, err := core.NewLegalizer(d, cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if err := l.Legalize(context.Background()); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sums[key] = fnvPlacement(d)
		}
	}
	if *updateGolden {
		header := fmt.Sprintf("# Placement checksums (FNV-1a 64, hex) for the Table-1 set at scale %d: ExactEval (exact), PowerAlign off (relaxed).\n", goldenScale) +
			"# Pinned by TestGoldenModes; regenerate with -update-golden.\n"
		writeGolden(t, goldenModesFile, header, sums)
		t.Logf("wrote %s (%d entries)", goldenModesFile, len(sums))
		return
	}
	compareGolden(t, goldenModesFile, sums)
}

const goldenSessionsFile = "testdata/golden_sessions.txt"

// sessionBatches is the length of each benchmark's delta stream.
const sessionBatches = 10

// sessionSentinels names the errors a failed batch may wrap, in the
// order they are tried.
var sessionSentinels = []struct {
	name string
	err  error
}{
	{"ErrCellTooWide", core.ErrCellTooWide},
	{"ErrUnknownCell", core.ErrUnknownCell},
	{"ErrNoInsertionPoint", core.ErrNoInsertionPoint},
	{"ErrRoundsExhausted", core.ErrRoundsExhausted},
}

// sessionOutcome names what one batch returned: "ok", the first
// sentinel of sessionSentinels it wraps, or "error".
func sessionOutcome(err error) string {
	if err == nil {
		return "ok"
	}
	for _, s := range sessionSentinels {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return "error"
}

// liveMovable returns the live movable cells of d in a seeded shuffle.
func liveMovable(d *design.Design, rng *rand.Rand) []design.CellID {
	var ids []design.CellID
	for i := range d.Cells {
		if c := &d.Cells[i]; !c.Fixed && !c.Dead {
			ids = append(ids, c.ID)
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// sessionBatch builds batch b of a benchmark's delta stream from the
// session's current design. Batches cycle through moves, resizes, and
// inserts with deletes; every fourth one fails after its earlier deltas
// have lifted cells, on a resize wider than the die. The last batch
// before the final one moves cells and then names a cell deleted in an
// earlier batch, which validation rejects before any edit.
func sessionBatch(d *design.Design, b int, deleted []design.CellID) []core.Delta {
	seed := int64(1000 + b)
	rng := rand.New(rand.NewSource(seed))
	tooWide := d.Bounds().W + 1
	resizes := func(ids []design.CellID) []core.Delta {
		var out []core.Delta
		for i, id := range ids {
			w := d.Cell(id).W + 1
			if i%2 == 1 {
				w = max(1, w-2)
			}
			out = append(out, core.Delta{Op: core.DeltaResize, Cell: id, NewW: w})
		}
		return out
	}
	inserts := func(near []design.CellID) []core.Delta {
		var out []core.Delta
		for _, id := range near {
			c := d.Cell(id)
			out = append(out, core.Delta{
				Op:     core.DeltaInsert,
				Master: c.Master,
				TX:     float64(c.X) + float64(rng.Intn(11)-5),
				TY:     float64(c.Y) + float64(rng.Intn(3)-1),
			})
		}
		return out
	}
	switch {
	case b == sessionBatches-2 && len(deleted) > 0:
		return append(ecoDeltas(d, 6, seed), core.Delta{Op: core.DeltaMove, Cell: deleted[0], TX: 0, TY: 0})
	case b%4 == 0:
		return ecoDeltas(d, 10, seed)
	case b%4 == 1:
		return resizes(liveMovable(d, rng)[:6])
	case b%4 == 2:
		ids := liveMovable(d, rng)
		out := inserts(ids[:3])
		for _, id := range ids[3:6] {
			out = append(out, core.Delta{Op: core.DeltaDelete, Cell: id})
		}
		return out
	default:
		ids := liveMovable(d, rng)
		out := ecoDeltas(d, 6, seed)
		if b/4%2 == 1 {
			out = append(out, inserts(ids[:2])...)
			out = append(out, resizes(ids[2:4])...)
		}
		return append(out, core.Delta{Op: core.DeltaResize, Cell: ids[4], NewW: tooWide})
	}
}

// TestGoldenSessions legalizes every Table-1 benchmark, opens an ECO
// session on it and applies a fixed stream of delta batches: moves,
// resizes, inserts with deletes, and batches that must fail. It pins
// each batch's outcome (ok or the sentinel its error wraps) and the
// placement hash after it, and requires a failed batch to leave the hash
// and the session's kept digest where the batch before left them. After
// every batch the kept digest must equal a from-scratch one.
func TestGoldenSessions(t *testing.T) {
	var lines []string
	for _, spec := range bengen.Table1Specs(goldenScale) {
		p := Prepare(spec, 0)
		d := p.Bench.D.Clone()
		l, err := core.NewLegalizer(d, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := l.Legalize(context.Background()); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ses, err := core.NewSession(l)
		if err != nil {
			t.Fatalf("%s: session: %v", spec.Name, err)
		}
		var deleted []design.CellID
		before, kept := fnvPlacement(d), ses.PlacementChecksum()
		for b := 0; b < sessionBatches; b++ {
			deltas := sessionBatch(d, b, deleted)
			_, err := ses.ApplyDelta(context.Background(), deltas)
			sum := fnvPlacement(d)
			if err != nil && (sum != before || ses.PlacementChecksum() != kept) {
				t.Errorf("%s batch %d: failed (%v) but moved the hash %016x -> %016x or the digest %016x -> %016x",
					spec.Name, b, err, before, sum, kept, ses.PlacementChecksum())
			}
			if kept = ses.PlacementChecksum(); kept != d.PlacementChecksum() {
				t.Errorf("%s batch %d: kept digest %016x, from scratch %016x", spec.Name, b, kept, d.PlacementChecksum())
			}
			if err == nil {
				for _, dl := range deltas {
					if dl.Op == core.DeltaDelete {
						deleted = append(deleted, dl.Cell)
					}
				}
			}
			lines = append(lines, fmt.Sprintf("%s/%02d %s %016x", spec.Name, b, sessionOutcome(err), sum))
			before = sum
		}
		ses.Close()
	}
	sort.Strings(lines)

	if *updateGolden {
		header := fmt.Sprintf("# ECO session streams on the Table-1 set at scale %d: <bench>/<batch> <outcome> <placement checksum after the batch>.\n", goldenScale) +
			"# Pinned by TestGoldenSessions; regenerate with -update-golden.\n"
		if err := os.WriteFile(goldenSessionsFile, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d batches)", goldenSessionsFile, len(lines))
		return
	}
	want := readSessionGolden(t)
	if len(want) != len(lines) {
		t.Errorf("golden file has %d batches, run produced %d", len(want), len(lines))
	}
	for i := 0; i < min(len(want), len(lines)); i++ {
		if want[i] != lines[i] {
			t.Errorf("got  %s\nwant %s", lines[i], want[i])
		}
	}
}

// readSessionGolden returns goldenSessionsFile's batch lines, each
// checked for the "<bench>/<batch> <outcome> <checksum>" shape.
func readSessionGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenSessionsFile)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("golden file: malformed line %q", line)
		}
		if _, err := strconv.ParseUint(fields[2], 16, 64); err != nil {
			t.Fatalf("golden file: bad checksum on %q: %v", line, err)
		}
		out = append(out, strings.Join(fields, " "))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
