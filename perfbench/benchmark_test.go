package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
	"mrlegal/internal/iodesign"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, n := range []int{0, 1, 10, 11, 19} {
		if _, _, _, ok := tail(seq(n)); ok {
			t.Errorf("n=%d: got a tail, want none", n)
		}
	}
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{20, 50, 10, 10},
		{99, 50, 50, 49},
		{100, 90, 90, 10},
		{999, 90, 900, 99},
		{1000, 99, 990, 10},
		{4000, 99, 3960, 40},
		{10000, 99.9, 9990, 10},
	} {
		v, pct, beyond, ok := tail(seq(tc.n))
		if !ok || pct != tc.pct || v != tc.value || beyond != tc.beyond {
			t.Errorf("n=%d: got p%g = %g with %d beyond (ok %v), want p%g = %g with %d",
				tc.n, pct, v, beyond, ok, tc.pct, tc.value, tc.beyond)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %g", m)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func ecoTestDesign() *ecoGen {
	d := bengen.GenerateSized(bengen.SizeSpec{Name: "t", NumCells: 400, Seed: 3})
	return newEcoGen(d, 7)
}

func TestEcoGenDeterministic(t *testing.T) {
	a, b := ecoTestDesign(), ecoTestDesign()
	for f := 0; f < 50; f++ {
		ja, _ := json.Marshal(a.frame())
		jb, _ := json.Marshal(b.frame())
		if !bytes.Equal(ja, jb) {
			t.Fatalf("frame %d differs between generators with the same seed", f)
		}
	}
	c := newEcoGen(bengen.GenerateSized(bengen.SizeSpec{Name: "t", NumCells: 400, Seed: 3}), 8)
	ja, _ := json.Marshal(ecoTestDesign().frame())
	jc, _ := json.Marshal(c.frame())
	if bytes.Equal(ja, jc) {
		t.Error("different seeds gave the same first frame")
	}
}

func TestEcoGenTracksRoster(t *testing.T) {
	g := ecoTestDesign()
	roster, live0 := len(g.home), len(g.live)
	deleted := map[int]bool{}
	large := 0
	for f := 0; f < 10*ecoBlock; f++ {
		counts := map[string]int{}
		// The session validates a frame before applying it: targets must
		// exist before the frame starts.
		known := roster
		frame := g.frame()
		for i, dj := range frame {
			counts[dj.Op]++
			switch dj.Op {
			case "insert":
				roster++
			case "move", "resize", "delete":
				id := *dj.Cell
				if id >= known || deleted[id] {
					t.Fatalf("frame %d delta %d: %s targets cell %d (roster %d, deleted %v)", f, i, dj.Op, id, roster, deleted[id])
				}
				if dj.Op == "delete" {
					deleted[id] = true
				}
				if dj.Op == "resize" && (*dj.W < 1 || abs(float64(*dj.W-g.base[id])) > 1) {
					t.Fatalf("frame %d: resize of cell %d to %d, created %d wide", f, id, *dj.W, g.base[id])
				}
			}
		}
		n := len(frame)
		if n != smallFrame && n != largeFrame {
			t.Fatalf("frame %d has %d deltas", f, n)
		}
		if n == largeFrame {
			large++
		}
		want := map[string]int{"move": 7 * n / 10, "resize": n / 10, "insert": n / 10, "delete": n / 10}
		for op, c := range want {
			if counts[op] != c {
				t.Fatalf("frame %d: %d %s deltas, want %d", f, counts[op], op, c)
			}
		}
		if len(g.live) != live0 {
			t.Fatalf("frame %d: %d live cells, started with %d", f, len(g.live), live0)
		}
		if (f+1)%ecoBlock == 0 && large != (f+1)/ecoBlock {
			t.Fatalf("after frame %d: %d large frames, want one per block of %d", f, large, ecoBlock)
		}
	}
	if roster != len(g.home) {
		t.Errorf("roster %d, generator holds %d", roster, len(g.home))
	}
}

func TestCheckPlacementRejectsCorruption(t *testing.T) {
	d := bengen.GenerateSized(bengen.SizeSpec{Name: "t", NumCells: 300, Seed: 5})
	l, err := core.NewLegalizer(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := iodesign.Write(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	sum := d.PlacementChecksum()
	if _, err := checkPlacement(buf.Bytes(), sum); err != nil {
		t.Fatalf("legal placement rejected: %v", err)
	}
	if _, err := checkPlacement(buf.Bytes(), sum^1); err == nil {
		t.Error("wrong checksum accepted")
	}
	// Put cell c1 on top of cell c0.
	pos := regexp.MustCompile(`(?m)^cell c0 .* @ (\d+ \d+)$`).FindSubmatch(buf.Bytes())
	bad := regexp.MustCompile(`(?m)^(cell c1 .* @ )\d+ \d+$`).ReplaceAll(buf.Bytes(), append([]byte("${1}"), pos[1]...))
	if bytes.Equal(bad, buf.Bytes()) {
		t.Fatal("corruption did not apply")
	}
	if _, err := checkPlacement(bad, sum); err == nil || !strings.Contains(err.Error(), "violations") {
		t.Errorf("overlapping placement: got %v, want a violation", err)
	}
}

// TestSmoke runs every workload at a small size through the real paths,
// untraced and traced, and checks the result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				var log bytes.Buffer
				o := options{seed: 2, seconds: 0.001, traced: traced, log: &log, scale: 20}
				res, err := w.run(context.Background(), o)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
					t.Fatalf("problems %v, %d of %d failed\n%s", res.problems, res.failed, res.attempted, log.String())
				}
				defs, vals := endToEnd, res.e2e
				if traced {
					defs, vals = perLayer, res.layers
					if vals["unattributed_s"] < 0 {
						t.Errorf("unattributed_s = %g", vals["unattributed_s"])
					}
				}
				for _, d := range defs {
					if _, ok := vals[d.name]; !ok && !traced {
						t.Errorf("metric %s missing", d.name)
					}
					if !traced && vals[d.name] <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, vals[d.name])
					}
				}
				line, err := resultJSON(res, defs, vals)
				if err != nil {
					t.Fatal(err)
				}
				var out map[string]json.RawMessage
				if err := json.Unmarshal([]byte(line), &out); err != nil || len(out) != 4 {
					t.Errorf("result line %s: %v", line, err)
				}
			})
		}
	}
}

// TestTracedCountersRepeat checks that input-determined counters repeat
// exactly between traced runs of the same seed.
func TestTracedCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			o := options{seed: 4, seconds: 0.001, traced: true, log: io.Discard, scale: 20}
			res, err := w.run(context.Background(), o)
			if err != nil || len(res.problems) > 0 {
				t.Fatalf("%s: %v %v", w.name, err, res.problems)
			}
			if len(res.counters) == 0 {
				t.Fatalf("%s: no counters", w.name)
			}
			if first == nil {
				first = res.counters
				continue
			}
			for k, v := range first {
				if res.counters[k] != v {
					t.Errorf("%s: %s = %v then %v", w.name, k, v, res.counters[k])
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the reported metrics
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s, want %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
