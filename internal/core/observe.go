package core

import (
	"errors"
	"time"

	"mrlegal/internal/design"
	"mrlegal/internal/obs"
)

// This file is the engine side of the observability layer
// (internal/obs): metric handles resolved once at legalizer construction,
// and the recording helpers the round driver and the transaction layer
// (every attempt's exit, every commit and rollback) call.
//
// Discipline: every caller nil-checks l.om first, so the disabled
// configuration (Config.Obs == nil) pays exactly one pointer compare per
// instrumentation site — no time syscalls, no atomics, no allocations —
// and the hot-path allocation budget (BenchmarkSingleMLLCall ≤ 5
// allocs/op, guarded by TestSingleMLLCallAllocs) is untouched. Nothing recorded
// here feeds back into placement decisions, so placements are
// byte-identical with observability on or off (the golden determinism
// suite pins this).

// dispBuckets bucket per-cell displacements in site widths.
var dispBuckets = []float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// obsMetrics holds the resolved metric handles of one legalizer. Handle
// resolution (map lookups, label formatting) happens once in
// newObsMetrics; recording sites touch only atomics.
type obsMetrics struct {
	o *obs.Observer

	// Driver activity.
	attempts        *obs.Counter
	placements      *obs.Counter
	attemptFailures *obs.Counter
	rounds          *obs.Counter
	unplaced        *obs.Gauge
	placedCells     *obs.Gauge
	failedCells     *obs.Gauge

	// MLL pipeline activity (mirrors Stats; fed at every attempt's
	// exit).
	directPlacements *obs.Counter
	mllCalls         *obs.Counter
	mllSuccesses     *obs.Counter
	mllFailures      *obs.Counter
	insertionPoints  *obs.Counter
	candidatesPruned *obs.Counter
	searchNodesCut   *obs.Counter
	windowsPruned    *obs.Counter
	cellsPushed      *obs.Counter
	conFiltered      *obs.Counter

	// Transactions and audits.
	txnCommits     *obs.Counter
	txnRollbacks   *obs.Counter
	auditRuns      *obs.Counter
	auditRollbacks *obs.Counter

	// Incremental (ECO) session activity (session.go), aggregated across
	// sessions.
	ecoSessionsActive *obs.Gauge
	ecoDeltaBatches   *obs.Counter
	ecoDeltaCells     *obs.Counter
	ecoDirtyCells     *obs.Counter

	// Distributions.
	attemptSeconds *obs.Histogram
	runSeconds     *obs.Histogram
	dispSites      *obs.Histogram
	phaseHists     [4]*obs.Histogram // extract, enumerate, evaluate, realize
}

func newObsMetrics(o *obs.Observer) *obsMetrics {
	r := o.Registry()
	m := &obsMetrics{
		o: o,

		attempts:        r.Counter("mrlegal_cell_attempts_total", "Cell placement attempts executed by the driver."),
		placements:      r.Counter("mrlegal_cell_placements_total", "Cell placement attempts that succeeded."),
		attemptFailures: r.Counter("mrlegal_cell_attempt_failures_total", "Cell placement attempts that failed (the cell is retried in a later round)."),
		rounds:          r.Counter("mrlegal_rounds_total", "Algorithm-1 rounds executed."),
		unplaced:        r.Gauge("mrlegal_unplaced_cells", "Cells still unplaced at the start of the current round."),
		placedCells:     r.Gauge("mrlegal_placed_cells", "Movable cells placed at the end of the run."),
		failedCells:     r.Gauge("mrlegal_failed_cells", "Movable cells unplaced at the end of the run."),

		directPlacements: r.Counter("mrlegal_direct_placements_total", "Cells placed at their snapped position with no legalization."),
		mllCalls:         r.Counter("mrlegal_mll_calls_total", "Multi-row Local Legalization invocations."),
		mllSuccesses:     r.Counter("mrlegal_mll_successes_total", "MLL invocations that realized an insertion point."),
		mllFailures:      r.Counter("mrlegal_mll_failures_total", "MLL invocations that found no usable insertion point."),
		insertionPoints:  r.Counter("mrlegal_insertion_points_evaluated_total", "Insertion points scored by the evaluator."),
		candidatesPruned: r.Counter("mrlegal_search_candidates_pruned_total", "Fully-formed insertion points skipped by the best-first lower bound."),
		searchNodesCut:   r.Counter("mrlegal_search_nodes_cut_total", "Partial-combination subtrees cut by the best-first lower bound."),
		windowsPruned:    r.Counter("mrlegal_search_windows_pruned_total", "Candidate bottom rows never entered by the best-first search."),
		cellsPushed:      r.Counter("mrlegal_cells_pushed_total", "Local cells moved aside by MLL realizations."),
		conFiltered:      r.Counter("mrlegal_constraint_filtered_total", "Candidate positions rejected by constraint-plugin feasibility filters."),

		txnCommits:     r.Counter("mrlegal_txn_commits_total", "Transactions committed."),
		txnRollbacks:   r.Counter("mrlegal_txn_rollbacks_total", "Transactions rolled back."),
		auditRuns:      r.Counter("mrlegal_audit_runs_total", "Mid-run invariant audits executed."),
		auditRollbacks: r.Counter("mrlegal_audit_rollbacks_total", "Audits that detected a violation and rolled back a batch."),

		ecoSessionsActive: r.Gauge("mrlegal_eco_sessions_active", "Incremental legalization sessions currently open on this engine."),
		ecoDeltaBatches:   r.Counter("mrlegal_eco_delta_batches_total", "Committed incremental delta batches."),
		ecoDeltaCells:     r.Counter("mrlegal_eco_delta_cells_total", "Cell-level deltas applied by committed batches."),
		ecoDirtyCells:     r.Counter("mrlegal_eco_dirty_cells_total", "Distinct cells perturbed by committed delta batches (targets plus pushed neighbors)."),

		attemptSeconds: r.Histogram("mrlegal_attempt_seconds", "Wall time of one cell placement attempt (one placement step).", nil),
		runSeconds:     r.Histogram("mrlegal_run_seconds", "Wall time of one full legalization run.", nil),
		dispSites:      r.Histogram("mrlegal_cell_displacement_sites", "Displacement of each placed cell in site widths.", dispBuckets),
	}
	phases := [4]string{"extract", "enumerate", "evaluate", "realize"}
	for i, ph := range phases {
		m.phaseHists[i] = r.Histogram(
			obs.WithLabels("mrlegal_phase_seconds", "phase", ph),
			"MLL pipeline phase time of one placement attempt.", nil)
	}
	return m
}

// timing reports whether per-phase wall-clock accounting is active: on
// explicitly via Config.PhaseTiming, or implicitly whenever an observer is
// attached (the phase histograms need the same clocks).
func (l *Legalizer) timing() bool { return l.Cfg.PhaseTiming || l.om != nil }

// observeStep mirrors one attempt's work into the metric registry: the
// growth of the scratch's Stats and PhaseTimes since the snapshots s0 and
// p0 taken at the attempt's entry. attempt calls it on every exit, a
// recovered panic included, so metrics count exactly what Stats counts.
func (l *Legalizer) observeStep(s0 *Stats, p0 *PhaseTimes) {
	m, s, p := l.om, &l.sc.stats, &l.sc.phases
	m.directPlacements.Add(int64(s.DirectPlacements - s0.DirectPlacements))
	m.mllCalls.Add(int64(s.MLLCalls - s0.MLLCalls))
	m.mllSuccesses.Add(int64(s.MLLSuccesses - s0.MLLSuccesses))
	m.mllFailures.Add(int64(s.MLLFailures - s0.MLLFailures))
	m.insertionPoints.Add(s.InsertionPoints - s0.InsertionPoints)
	m.candidatesPruned.Add(s.CandidatesPruned - s0.CandidatesPruned)
	m.searchNodesCut.Add(s.SearchNodesCut - s0.SearchNodesCut)
	m.windowsPruned.Add(s.WindowsPruned - s0.WindowsPruned)
	m.cellsPushed.Add(s.CellsPushed - s0.CellsPushed)
	m.conFiltered.Add(s.ConstraintFiltered - s0.ConstraintFiltered)
	for i, d := range [4]time.Duration{
		p.Extract - p0.Extract, p.Enumerate - p0.Enumerate,
		p.Evaluate - p0.Evaluate, p.Realize - p0.Realize,
	} {
		if d > 0 {
			m.phaseHists[i].Observe(d.Seconds())
		}
	}
}

// outcomeFor maps a taxonomy error to its trace outcome.
func outcomeFor(err error) obs.CellOutcome {
	switch {
	case errors.Is(err, ErrNoInsertionPoint):
		return obs.OutcomeNoIP
	case errors.Is(err, ErrCellTooWide):
		return obs.OutcomeTooWide
	case errors.Is(err, ErrCanceled):
		return obs.OutcomeCanceled
	case errors.Is(err, ErrAuditFailed):
		return obs.OutcomeAudit
	case errors.Is(err, ErrPanicked):
		return obs.OutcomePanic
	}
	return obs.OutcomeError
}

// observeAttempt records one driver placement attempt: counters, the
// attempt-duration histogram and a trace event. s0 is the snapshot
// of the Stats taken before the attempt, so the delta is the attempt's
// own work.
func (l *Legalizer) observeAttempt(id design.CellID, round, rx, ry int, s0 Stats, dur time.Duration, err error) {
	m := l.om
	d := &l.sc.stats
	ev := obs.CellEvent{
		Cell:      int(id),
		Round:     round,
		WinW:      rx,
		WinH:      ry,
		Evaluated: d.InsertionPoints - s0.InsertionPoints,
		Pruned: (d.CandidatesPruned - s0.CandidatesPruned) +
			(d.SearchNodesCut - s0.SearchNodesCut) +
			(d.WindowsPruned - s0.WindowsPruned),
		Dur: dur,
	}
	m.attempts.Inc()
	if err == nil {
		if d.DirectPlacements > s0.DirectPlacements {
			ev.Outcome = obs.OutcomeDirect
		} else {
			ev.Outcome = obs.OutcomeMLL
		}
		ev.Disp = l.D.Cell(id).DispSites(l.D.SiteW, l.D.SiteH)
		m.placements.Inc()
	} else {
		ev.Outcome = outcomeFor(err)
		m.attemptFailures.Inc()
	}
	m.attemptSeconds.Observe(dur.Seconds())
	m.o.RecordCell(ev)
}

// observeRun closes out a run: one "final" trace event per placed movable
// cell (in ascending cell order, the same order TotalDispSites sums in, so
// the trace's displacement total reproduces Report.TotalDisp exactly),
// end-of-run gauges and the run-duration histogram.
func (l *Legalizer) observeRun(rep *Report, dur time.Duration) {
	m := l.om
	for i := range l.D.Cells {
		c := &l.D.Cells[i]
		if c.Fixed || !c.Placed {
			continue
		}
		disp := c.DispSites(l.D.SiteW, l.D.SiteH)
		m.dispSites.Observe(disp)
		m.o.RecordCell(obs.CellEvent{
			Cell:    int(c.ID),
			Outcome: obs.OutcomeFinal,
			Disp:    disp,
		})
	}
	m.placedCells.Set(int64(rep.Placed))
	m.failedCells.Set(int64(len(rep.Failed)))
	m.runSeconds.Observe(dur.Seconds())
}
