package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/jobq"
)

// TestReportRoundTrip encodes an engine report to the wire form and reads
// the JSON back as plain values: every scalar field under its wire name,
// the checksum as 16 hex digits, and each failure's identity and
// taxonomy code.
func TestReportRoundTrip(t *testing.T) {
	rep := &core.Report{
		Placed:         41,
		Rounds:         3,
		TimedOut:       true,
		AuditRuns:      5,
		AuditRollbacks: 1,
		TotalDisp:      123.5,
		AvgDisp:        2.75,
		MaxDisp:        17.0,
		Failed: []core.CellFailure{
			{Cell: 7, Name: "u7", Err: fmt.Errorf("no gap wide enough: %w", core.ErrNoInsertionPoint)},
			{Cell: 9, Name: "u9", Err: core.ErrCellTooWide},
			{Cell: 12, Name: "u12", Err: fmt.Errorf("rolled back: %w", core.ErrAuditFailed)},
		},
	}
	const checksum = uint64(0xdeadbeefcafef00d)

	blob, err := json.Marshal(EncodeReport(rep, checksum))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]any{
		"placed":             41.0,
		"rounds":             3.0,
		"timed_out":          true,
		"audit_runs":         5.0,
		"audit_rollbacks":    1.0,
		"total_disp":         123.5,
		"avg_disp":           2.75,
		"max_disp":           17.0,
		"placement_checksum": "deadbeefcafef00d",
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v", key, got[key], want)
		}
	}
	failed, _ := got["failed"].([]any)
	if len(failed) != len(rep.Failed) {
		t.Fatalf("failed = %v, want %d entries", got["failed"], len(rep.Failed))
	}
	wantCodes := []string{"no_insertion_point", "cell_too_wide", "audit_failed"}
	for i, f := range failed {
		fj, _ := f.(map[string]any)
		src := rep.Failed[i]
		if fj["cell"] != float64(src.Cell) || fj["name"] != src.Name ||
			fj["code"] != wantCodes[i] || fj["message"] != src.Err.Error() {
			t.Errorf("failure %d = %v, want cell %d, name %q, code %q, message %q",
				i, fj, src.Cell, src.Name, wantCodes[i], src.Err.Error())
		}
	}
}

// TestErrorCodeTaxonomy pins the sentinel → code mapping: every engine
// and queue sentinel must map to its stable API code, wrapped or not.
func TestErrorCodeTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{core.ErrCellTooWide, "cell_too_wide"},
		{core.ErrNoInsertionPoint, "no_insertion_point"},
		{core.ErrAuditFailed, "audit_failed"},
		{core.ErrCanceled, "canceled"},
		{core.ErrFixedCell, "fixed_cell"},
		{core.ErrInvalidWidth, "invalid_width"},
		{core.ErrInvalidTarget, "invalid_target"},
		{core.ErrPanicked, "panicked"},
		{core.ErrRoundsExhausted, "rounds_exhausted"},
		{core.ErrRollbackFailed, "rollback_failed"},
		{jobq.ErrQueueFull, "queue_full"},
		{jobq.ErrTenantLimit, "tenant_limit"},
		{jobq.ErrShuttingDown, "shutting_down"},
		{jobq.ErrJobPanicked, "job_panicked"},
		{jobq.ErrCanceled, "job_canceled"},
		{jobq.ErrNotFound, "job_not_found"},
		{context.DeadlineExceeded, "deadline_exceeded"},
	}
	for _, c := range cases {
		if got := ErrorCode(c.err); got != c.code {
			t.Errorf("ErrorCode(%v) = %q, want %q", c.err, got, c.code)
		}
		wrapped := fmt.Errorf("outer context: %w", c.err)
		if got := ErrorCode(wrapped); got != c.code {
			t.Errorf("ErrorCode(wrapped %v) = %q, want %q", c.err, got, c.code)
		}
	}

	// CellError (the engine's wrapped per-cell failure) classifies through
	// its embedded sentinel.
	ce := &core.CellError{Cell: design.CellID(3), Name: "u3", Err: core.ErrNoInsertionPoint}
	if got := ErrorCode(ce); got != CodeNoInsertionPoint {
		t.Errorf("CellError: %q", got)
	}

	if got := ErrorCode(nil); got != "" {
		t.Errorf("ErrorCode(nil) = %q", got)
	}
	if got := ErrorCode(errors.New("mystery")); got != CodeInternal {
		t.Errorf("unknown error: %q", got)
	}
}
