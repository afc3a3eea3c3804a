// Command perfbench is the repository benchmark. It drives mrlegal's three
// entry points from outside, through their public functions, on inputs
// generated from a seed:
//
//	jobs_table1  HTTP jobs (submit, poll, report) on the 20 Table-1 designs
//	large_200k   a full mrlegal run (read, legalize, verify, write) on 200k cells
//	eco_stream   delta frames streamed to one ECO session of 50k cells
//
// Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload jobs_table1 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Progress and the
// correctness gate's findings go to standard error. The exit code is 0
// only when every op succeeded and every output passed the gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees; a traced run
// replaces them with perLayer. BENCHMARK.json carries the same names
// (benchmark_test.go checks it).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"cells_per_s", "1/s"},
	{"avg_disp_sites", "sites"},
	{"delta_hpwl_pct", "%"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, named by module. Times are
// seconds per op unless README.md says otherwise; a layer a workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"gp.place_s", "s"},
	{"iodesign.read_s", "s"},
	{"iodesign.write_s", "s"},
	{"service.submit_s", "s"},
	{"service.decode_s", "s"},
	{"service.poll_wait_s", "s"},
	{"service.polls_per_job", "count"},
	{"service.report_s", "s"},
	{"service.frame_decode_s", "s"},
	{"service.frame_bytes", "bytes"},
	{"jobq.wait_s", "s"},
	{"jobq.run_s", "s"},
	{"jobq.rejected", "count"},
	{"segment.build_s", "s"},
	{"core.legalize_s", "s"},
	{"core.extract_s", "s"},
	{"core.enumerate_s", "s"},
	{"core.evaluate_s", "s"},
	{"core.realize_s", "s"},
	{"core.driver_s", "s"},
	{"core.mll_calls", "count"},
	{"core.direct_placements", "count"},
	{"core.retry_rounds", "count"},
	{"core.cells_pushed", "count"},
	{"core.insertion_points", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.cache_lookups", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.allocs_per_cell", "count"},
	{"sched.dispatched", "count"},
	{"sched.deferred", "count"},
	{"sched.cells_per_batch", "count"},
	{"core.apply_delta_s", "s"},
	{"core.dirty_cells", "count"},
	{"core.delta_retries", "count"},
	{"design.checksum_s", "s"},
	{"verify.check_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"unattributed_s", "s"},
	{"obs.overhead_frac", "ratio"},
}

// options is what every workload receives.
type options struct {
	seed int64
	// seconds is the run length. Each workload turns it into a fixed op
	// count at its nominal op rate on the reference VM (opsFor), so two
	// runs of one seed do the same work whatever their speed.
	seconds float64
	traced  bool
	log     io.Writer
	// scale shrinks the workload's inputs for the smoke tests; 1 is the
	// benchmark's size.
	scale int
}

func (o options) logf(format string, args ...any) {
	fmt.Fprintf(o.log, format+"\n", args...)
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	// problems lists every correctness-gate failure; a run is correct
	// when it is empty.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	// counters holds the traced run's input-determined counts, printed
	// so two traced runs can be compared for exact repetition.
	counters map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, counters: map[string]float64{}}
}

// fail records a correctness-gate failure.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name, why string
	run       func(ctx context.Context, o options) (*result, error)
}

// workloads is the benchmark's workload set, mirrored in BENCHMARK.json.
var workloads = []workload{
	{"jobs_table1", "the paper's Table-1 suite as HTTP jobs: request decode, jobq admission and serial MLL on short rows", runJobsTable1},
	{"large_200k", "one mrlegal run on 200k cells: long rows make region extraction dominate; the only claim-board workload", runLarge200k},
	{"eco_stream", "ECO deltas streamed to one session (20-delta frames, one 400-delta frame in 50): ApplyDelta, the frame codec, the checksum", runEcoStream},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives byte-identical inputs")
	seconds := fs.Int("seconds", 20, "run length in seconds, turned into a fixed op count (README.md)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: float64(*seconds), traced: *trace == 1, log: stderr, scale: 1}
	res, err := w.run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: GATE FAILED: %s\n", w.name, p)
	}
	printInfo(stderr, "end-to-end", endToEnd, res.e2e)
	if o.traced {
		printInfo(stderr, "per-layer", perLayer, res.layers)
		printInfo(stderr, "input-determined counters", sortedDefs(res.counters), res.counters)
	}
	defs, vals := endToEnd, res.e2e
	if o.traced {
		defs, vals = perLayer, res.layers
	}
	line, err := resultJSON(res, defs, vals)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(res.problems) > 0 || res.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// resultJSON renders the final output line.
func resultJSON(res *result, defs []metricDef, vals map[string]float64) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		out.Metrics[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func printInfo(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "-- %s\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "   %-26s %16.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

func sortedDefs(m map[string]float64) []metricDef {
	var defs []metricDef
	for k := range m {
		defs = append(defs, metricDef{k, "count"})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	return defs
}
