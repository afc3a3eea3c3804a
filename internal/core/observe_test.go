package core_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/faultinject"
	"mrlegal/internal/obs"
)

// obsSpec is a benchmark dense enough to force MLL calls, retries and a
// mix of direct and displaced placements.
var obsSpec = bengen.Spec{Name: "obs", NumCells: 800, Density: 0.7, Seed: 7}

// legalizeObserved legalizes a fresh obsSpec instance with an observer
// attached and returns the run's artifacts.
func legalizeObserved(t *testing.T, trace *bytes.Buffer) (*core.Legalizer, *core.Report, *obs.Observer) {
	t.Helper()
	b := bengen.Generate(obsSpec)
	opt := obs.Options{}
	if trace != nil { // a typed-nil io.Writer would re-enable the sink
		opt.TraceOut = trace
	}
	o := obs.New(opt)
	cfg := core.DefaultConfig()
	cfg.Seed = 5
	cfg.Obs = o
	l, err := core.NewLegalizer(b.D, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	return l, rep, o
}

// TestTraceMatchesReport pins the trace/Report exactness contract: the
// end-of-run "final" events, summed in trace order, reproduce
// Report.TotalDisp bit for bit (both walk the cells in ascending ID
// order), and their count is exactly Report.Placed.
func TestTraceMatchesReport(t *testing.T) {
	var buf bytes.Buffer
	_, rep, _ := legalizeObserved(t, &buf)

	evs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var finals int
	var total float64
	attempts := make(map[int]bool)
	for _, ev := range evs {
		if ev.Outcome == obs.OutcomeFinal {
			finals++
			total += ev.Disp
			continue
		}
		attempts[ev.Cell] = true
	}
	if finals != rep.Placed {
		t.Errorf("%d final events, Report.Placed = %d", finals, rep.Placed)
	}
	if total != rep.TotalDisp {
		t.Errorf("trace disp total %v != Report.TotalDisp %v (must be exact)", total, rep.TotalDisp)
	}
	// Every placed cell must have at least one attempt event.
	if len(attempts) < rep.Placed {
		t.Errorf("%d cells have attempt events, %d placed", len(attempts), rep.Placed)
	}
	if rep.Placed == 0 || len(rep.Failed) > 0 {
		t.Fatalf("degenerate run %+v", rep)
	}
}

// assertMirror checks that every Stats counter the registry mirrors
// equals the legalizer's own Stats.
func assertMirror(t *testing.T, l *core.Legalizer, o *obs.Observer) {
	t.Helper()
	st := l.Stats()
	snap := o.Registry().Snapshot()
	counters := map[string]int64{
		"mrlegal_direct_placements_total":          int64(st.DirectPlacements),
		"mrlegal_mll_calls_total":                  int64(st.MLLCalls),
		"mrlegal_mll_successes_total":              int64(st.MLLSuccesses),
		"mrlegal_mll_failures_total":               int64(st.MLLFailures),
		"mrlegal_insertion_points_evaluated_total": st.InsertionPoints,
		"mrlegal_search_candidates_pruned_total":   st.CandidatesPruned,
		"mrlegal_search_nodes_cut_total":           st.SearchNodesCut,
		"mrlegal_search_windows_pruned_total":      st.WindowsPruned,
		"mrlegal_cells_pushed_total":               st.CellsPushed,
		"mrlegal_constraint_filtered_total":        st.ConstraintFiltered,
	}
	for name, want := range counters {
		if got, ok := snap.Counters[name]; !ok {
			t.Errorf("%s not registered", name)
		} else if got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
}

// TestMetricsMirrorStats checks the registry counters, fed at every
// attempt's exit, equal the Stats the engine itself reports: on a plain
// run, and on a run under a constraint set that filters candidates.
func TestMetricsMirrorStats(t *testing.T) {
	l, rep, o := legalizeObserved(t, nil)
	assertMirror(t, l, o)
	snap := o.Registry().Snapshot()
	for name, want := range map[string]int64{
		"mrlegal_rounds_total":          int64(rep.Rounds),
		"mrlegal_cell_placements_total": int64(rep.Placed),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, Report says %d", name, got, want)
		}
	}
	attempts := snap.Counters["mrlegal_cell_attempts_total"]
	if g := snap.Gauges["mrlegal_placed_cells"]; g != int64(rep.Placed) {
		t.Errorf("placed_cells gauge %d, Report.Placed %d", g, rep.Placed)
	}
	if h := snap.Hists["mrlegal_cell_displacement_sites"]; h.Count != int64(rep.Placed) {
		t.Errorf("displacement histogram count %d, Report.Placed %d", h.Count, rep.Placed)
	}
	if h := snap.Hists["mrlegal_run_seconds"]; h.Count != 1 {
		t.Errorf("run_seconds count %d, want 1", h.Count)
	}
	if h := snap.Hists["mrlegal_attempt_seconds"]; h.Count != attempts {
		t.Errorf("attempt_seconds count %d, attempts %d", h.Count, attempts)
	}

	spacing, err := constraint.NewSpacing(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := constraint.NewTPL(1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.NewSet(spacing, tpl)
	if err != nil {
		t.Fatal(err)
	}
	b := bengen.Generate(obsSpec)
	o = obs.New(obs.Options{})
	cfg := core.DefaultConfig()
	cfg.Seed = 5
	cfg.Obs = o
	cfg.Constraints = set
	l, err = core.NewLegalizer(b.D, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
		t.Fatal(err)
	}
	if l.Stats().ConstraintFiltered == 0 {
		t.Fatal("the constraint set filtered nothing; the mirror check is vacuous")
	}
	assertMirror(t, l, o)
}

// TestPanickedAttemptCountedAtOnce: an attempt that panics mid-realization
// has done its MLL work, and Stats and the metrics count that work as soon
// as the attempt returns, not at the next call.
func TestPanickedAttemptCountedAtOnce(t *testing.T) {
	d := dtest.Flat(1, 40)
	var ids []design.CellID
	for i := 0; i < 6; i++ {
		ids = append(ids, dtest.Unplaced(d, 4, 1, float64(i*6), 0))
	}
	o := obs.New(obs.Options{})
	cfg := core.DefaultConfig()
	cfg.Rx, cfg.Ry = 15, 3
	cfg.Obs = o
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	l.Cfg.Faults = &faultinject.Injector{PanicRealizeEvery: 1}
	// An occupied target, so the move goes through MLL and panics there.
	if err := l.TryMoveCell(ids[0], float64(d.Cell(ids[3]).X), 0); !errors.Is(err, core.ErrPanicked) {
		t.Fatalf("err = %v, want ErrPanicked", err)
	}
	failed := l.Stats()
	if failed.MLLCalls != before.MLLCalls+1 || failed.InsertionPoints <= before.InsertionPoints {
		t.Errorf("after the panicked move: MLLCalls %d -> %d, InsertionPoints %d -> %d; want one call and its candidates counted",
			before.MLLCalls, failed.MLLCalls, before.InsertionPoints, failed.InsertionPoints)
	}
	assertMirror(t, l, o)

	// The next call, a direct re-placement at the cell's own slot, owns
	// none of the panicked attempt's work.
	l.Cfg.Faults = nil
	c := d.Cell(ids[5])
	if err := l.TryMoveCell(c.ID, float64(c.X), float64(c.Y)); err != nil {
		t.Fatal(err)
	}
	next := l.Stats()
	if next.MLLCalls != failed.MLLCalls || next.InsertionPoints != failed.InsertionPoints ||
		next.DirectPlacements != failed.DirectPlacements+1 {
		t.Errorf("direct move after the panic: %+v, want %+v plus one direct placement", next, failed)
	}
	assertMirror(t, l, o)
}

// TestObsDoesNotChangePlacements is the acceptance gate for the passive
// contract: attaching an observer must leave the placement byte-identical
// to the disabled run.
func TestObsDoesNotChangePlacements(t *testing.T) {
	checksum := func(observed bool) uint64 {
		b := bengen.Generate(obsSpec)
		cfg := core.DefaultConfig()
		cfg.Seed = 5
		if observed {
			cfg.Obs = obs.New(obs.Options{})
		}
		l, err := core.NewLegalizer(b.D, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Legalize(); err != nil {
			t.Fatal(err)
		}
		return b.D.PlacementChecksum()
	}
	if ref, got := checksum(false), checksum(true); got != ref {
		t.Errorf("observed checksum %016x != baseline %016x", got, ref)
	}
}

// TestTraceRecordsInfeasible checks that cells prescreened as too wide —
// which never reach the attempt loop — still get a trace event, so the
// trace accounts for every movable cell.
func TestTraceRecordsInfeasible(t *testing.T) {
	d := dtest.Flat(4, 30)
	wide := dtest.Unplaced(d, 50, 1, 0, 0)
	for i := 0; i < 6; i++ {
		dtest.Unplaced(d, 3, 1, float64(i*3), float64(i%4))
	}
	var buf bytes.Buffer
	o := obs.New(obs.Options{TraceOut: &buf})
	cfg := core.DefaultConfig()
	cfg.Obs = o
	l, err := core.NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 {
		t.Fatalf("failed = %v, want only the wide cell", rep.Failed)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range evs {
		if ev.Cell == int(wide) && ev.Outcome == obs.OutcomeTooWide {
			found = true
		}
	}
	if !found {
		t.Errorf("no too_wide event for prescreened cell %d in %d trace events", wide, len(evs))
	}
	snap := o.Registry().Snapshot()
	if a, f := snap.Counters["mrlegal_cell_attempts_total"], snap.Counters["mrlegal_cell_attempt_failures_total"]; f < 1 || a < 7 {
		t.Errorf("attempts=%d failures=%d, want the prescreened cell counted", a, f)
	}
}

// TestObsTxnCounters pins what each boundary adds to
// mrlegal_txn_commits_total and mrlegal_txn_rollbacks_total: a
// single-cell call commits once or rolls back once, a rejected one
// counts nothing; a run commits once at its end and once per passing
// audit, rolls back once per failing audit, and counts nothing for the
// per-cell drop with audits off; a delta batch commits or rolls back
// once, and a batch rejected before it starts counts nothing.
func TestObsTxnCounters(t *testing.T) {
	ctx := context.Background()
	// fresh returns an unplaced obsSpec legalizer with an observer and
	// the given audit cadence and faults.
	fresh := func(t *testing.T, auditEvery int, faults core.FaultInjector) (*core.Legalizer, *obs.Observer) {
		t.Helper()
		o := obs.New(obs.Options{})
		cfg := core.DefaultConfig()
		cfg.Obs, cfg.AuditEvery, cfg.Faults = o, auditEvery, faults
		l, err := core.NewLegalizer(bengen.Generate(obsSpec).D, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l, o
	}
	// legal returns a legalized obsSpec legalizer and its first movable
	// cell, with the counters read after the run.
	legal := func(t *testing.T) (*core.Legalizer, *obs.Observer, design.CellID) {
		t.Helper()
		l, o := fresh(t, 0, nil)
		if err := l.Legalize(); err != nil {
			t.Fatal(err)
		}
		for i := range l.D.Cells {
			if !l.D.Cells[i].Fixed {
				return l, o, l.D.Cells[i].ID
			}
		}
		t.Fatal("no movable cell")
		return nil, nil, 0
	}
	counts := func(o *obs.Observer) (int64, int64) {
		c := o.Registry().Snapshot().Counters
		return c["mrlegal_txn_commits_total"], c["mrlegal_txn_rollbacks_total"]
	}
	cases := []struct {
		name string
		// run performs the call and returns the commits and rollbacks
		// it must add.
		run func(t *testing.T) (o *obs.Observer, c0, r0, wantC, wantR int64)
	}{
		{"run without audits", func(t *testing.T) (*obs.Observer, int64, int64, int64, int64) {
			l, o := fresh(t, 0, nil)
			if err := l.Legalize(); err != nil {
				t.Fatal(err)
			}
			return o, 0, 0, 1, 0
		}},
		{"run with audits", func(t *testing.T) (*obs.Observer, int64, int64, int64, int64) {
			l, o := fresh(t, 25, &faultinject.Injector{FailAuditEvery: 3})
			rep, err := l.LegalizeBestEffort(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.AuditRollbacks == 0 {
				t.Fatal("no audit failed; the case needs both outcomes")
			}
			return o, 0, 0, int64(rep.AuditRuns-rep.AuditRollbacks) + 1, int64(rep.AuditRollbacks)
		}},
		{"MoveCell success", func(t *testing.T) (*obs.Observer, int64, int64, int64, int64) {
			l, o, id := legal(t)
			c0, r0 := counts(o)
			c := l.D.Cell(id)
			if err := l.TryMoveCell(id, float64(c.X+2), float64(c.Y)); err != nil {
				t.Fatal(err)
			}
			return o, c0, r0, 1, 0
		}},
		{"MoveCell failure", func(t *testing.T) (*obs.Observer, int64, int64, int64, int64) {
			l, o, id := legal(t)
			c0, r0 := counts(o)
			l.Cfg.Faults = &faultinject.Injector{FailInsertEvery: 1}
			c := l.D.Cell(id)
			if err := l.TryMoveCell(id, float64(c.X+2), float64(c.Y)); err == nil {
				t.Fatal("move succeeded under a failing grid")
			}
			return o, c0, r0, 0, 1
		}},
		{"ResizeCell rejected", func(t *testing.T) (*obs.Observer, int64, int64, int64, int64) {
			l, o, id := legal(t)
			c0, r0 := counts(o)
			if err := l.TryResizeCell(id, 0); !errors.Is(err, core.ErrInvalidWidth) {
				t.Fatalf("err = %v, want ErrInvalidWidth", err)
			}
			return o, c0, r0, 0, 0
		}},
		{"batch commit", func(t *testing.T) (*obs.Observer, int64, int64, int64, int64) {
			l, o, id := legal(t)
			s, err := core.NewSession(l)
			if err != nil {
				t.Fatal(err)
			}
			c0, r0 := counts(o)
			c := l.D.Cell(id)
			if _, err := s.ApplyDelta(ctx, []core.Delta{{Op: core.DeltaMove, Cell: id, TX: float64(c.X + 2), TY: float64(c.Y)}}); err != nil {
				t.Fatal(err)
			}
			return o, c0, r0, 1, 0
		}},
		{"batch abort", func(t *testing.T) (*obs.Observer, int64, int64, int64, int64) {
			l, o, id := legal(t)
			s, err := core.NewSession(l)
			if err != nil {
				t.Fatal(err)
			}
			c0, r0 := counts(o)
			l.Cfg.Faults = &faultinject.Injector{FailInsertEvery: 1}
			l.Cfg.MaxRounds = 1
			c := l.D.Cell(id)
			if _, err := s.ApplyDelta(ctx, []core.Delta{{Op: core.DeltaMove, Cell: id, TX: float64(c.X + 2), TY: float64(c.Y)}}); err == nil {
				t.Fatal("batch succeeded under a failing grid")
			}
			return o, c0, r0, 0, 1
		}},
		{"batch rejected", func(t *testing.T) (*obs.Observer, int64, int64, int64, int64) {
			l, o, _ := legal(t)
			s, err := core.NewSession(l)
			if err != nil {
				t.Fatal(err)
			}
			c0, r0 := counts(o)
			if _, err := s.ApplyDelta(ctx, []core.Delta{{Op: core.DeltaMove, Cell: -1}}); !errors.Is(err, core.ErrUnknownCell) {
				t.Fatalf("err = %v, want ErrUnknownCell", err)
			}
			return o, c0, r0, 0, 0
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, c0, r0, wantC, wantR := c.run(t)
			c1, r1 := counts(o)
			if c1-c0 != wantC || r1-r0 != wantR {
				t.Fatalf("commits +%d, rollbacks +%d; want +%d and +%d", c1-c0, r1-r0, wantC, wantR)
			}
		})
	}
}
