package core

import (
	"fmt"
	"strings"

	"mrlegal/internal/design"
)

// CellFailure records why one cell could not be placed. Err wraps a
// taxonomy sentinel (ErrCellTooWide, ErrNoInsertionPoint, ErrAuditFailed,
// ErrCanceled, ErrPanicked, ...).
type CellFailure struct {
	Cell design.CellID
	Name string
	Err  error
}

func (f CellFailure) String() string {
	return fmt.Sprintf("cell %d (%s): %v", f.Cell, f.Name, f.Err)
}

// Report summarizes a legalization run. LegalizeBestEffort always returns
// one; the strict entry points use it internally to build their errors.
type Report struct {
	// Placed and Failed partition the movable cells the run was asked to
	// place. Every cell in Failed is unplaced; the design is legal for all
	// placed cells.
	Placed int
	Failed []CellFailure

	// Rounds is the number of Algorithm-1 passes executed (the first pass
	// over input positions counts as round 1).
	Rounds int

	// TimedOut reports that context cancellation or the run deadline ended
	// the run before the round budget.
	TimedOut bool

	// AuditRuns and AuditRollbacks count mid-run invariant audits and how
	// many of them detected a violation and rolled back a batch.
	AuditRuns      int
	AuditRollbacks int

	// TotalDisp, AvgDisp and MaxDisp are displacement statistics over the
	// placed movable cells, in site widths.
	TotalDisp, AvgDisp, MaxDisp float64

	// Stats is the legalizer activity-counter snapshot at the end of the
	// run.
	Stats Stats

	// Phases is the per-phase wall-clock breakdown of the run's MLL work
	// (all-zero unless Config.PhaseTiming is on). It lives outside Stats
	// because wall-clock durations are never run-to-run comparable, while
	// Stats is compared with == by determinism tests.
	Phases PhaseTimes
}

// FailureFor returns the recorded failure for a cell, if any.
func (r *Report) FailureFor(id design.CellID) (CellFailure, bool) {
	for _, f := range r.Failed {
		if f.Cell == id {
			return f, true
		}
	}
	return CellFailure{}, false
}

// Summary renders a short multi-line human-readable account of the run,
// listing up to maxFailures failing cells (0 = all).
func (r *Report) Summary(maxFailures int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "placed %d cells, %d failed, %d rounds", r.Placed, len(r.Failed), r.Rounds)
	if r.TimedOut {
		b.WriteString(", timed out")
	}
	if r.AuditRuns > 0 {
		fmt.Fprintf(&b, ", %d audits (%d rollbacks)", r.AuditRuns, r.AuditRollbacks)
	}
	fmt.Fprintf(&b, "\n  displacement: total %.1f avg %.4f max %.1f site widths", r.TotalDisp, r.AvgDisp, r.MaxDisp)
	s := r.Stats
	fmt.Fprintf(&b, "\n  search: %d evaluated", s.InsertionPoints)
	if s.CandidatesPruned > 0 || s.SearchNodesCut > 0 || s.WindowsPruned > 0 {
		fmt.Fprintf(&b, ", %d candidates pruned, %d subtrees cut, %d windows pruned",
			s.CandidatesPruned, s.SearchNodesCut, s.WindowsPruned)
	}
	for i, f := range r.Failed {
		if maxFailures > 0 && i >= maxFailures {
			fmt.Fprintf(&b, "\n  ... and %d more failures", len(r.Failed)-i)
			break
		}
		fmt.Fprintf(&b, "\n  FAILED %s", f)
	}
	b.WriteByte('\n')
	return b.String()
}
