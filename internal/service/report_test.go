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

// TestReportRoundTrip encodes an engine report to the wire form, runs it
// through JSON, decodes it back and checks nothing was lost — including
// the errors.Is classification of every per-cell failure.
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
			{Cell: 12, Name: "u12", Err: fmt.Errorf("ran out: %w", core.ErrCellTimeout)},
		},
	}
	const checksum = uint64(0xdeadbeefcafef00d)

	rj := EncodeReport(rep, checksum)
	if rj.PlacementChecksum != "deadbeefcafef00d" {
		t.Fatalf("checksum encoding: %q", rj.PlacementChecksum)
	}

	blob, err := json.Marshal(rj)
	if err != nil {
		t.Fatal(err)
	}
	var rj2 ReportJSON
	if err := json.Unmarshal(blob, &rj2); err != nil {
		t.Fatal(err)
	}
	rep2, sum2, err := DecodeReport(&rj2)
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != checksum {
		t.Fatalf("checksum: got %x, want %x", sum2, checksum)
	}
	if rep2.Placed != rep.Placed || rep2.Rounds != rep.Rounds || rep2.TimedOut != rep.TimedOut ||
		rep2.AuditRuns != rep.AuditRuns || rep2.AuditRollbacks != rep.AuditRollbacks ||
		rep2.TotalDisp != rep.TotalDisp || rep2.AvgDisp != rep.AvgDisp || rep2.MaxDisp != rep.MaxDisp {
		t.Fatalf("scalar fields lost: %+v vs %+v", rep2, rep)
	}
	if len(rep2.Failed) != len(rep.Failed) {
		t.Fatalf("failure count: %d vs %d", len(rep2.Failed), len(rep.Failed))
	}
	wantSentinels := []error{core.ErrNoInsertionPoint, core.ErrCellTooWide, core.ErrCellTimeout}
	for i, f := range rep2.Failed {
		if f.Cell != rep.Failed[i].Cell || f.Name != rep.Failed[i].Name {
			t.Errorf("failure %d identity: %+v", i, f)
		}
		if !errors.Is(f.Err, wantSentinels[i]) {
			t.Errorf("failure %d: decoded error %v does not unwrap to %v", i, f.Err, wantSentinels[i])
		}
	}
}

// TestDecodeReportRejectsGarbage covers the two decode failure modes: a
// non-hex checksum and an unknown failure code.
func TestDecodeReportRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeReport(&ReportJSON{PlacementChecksum: "zzzz"}); err == nil {
		t.Error("bad checksum accepted")
	}
	rj := &ReportJSON{
		PlacementChecksum: "0000000000000001",
		Failed:            []FailureJSON{{Cell: 1, Code: "no_such_code"}},
	}
	if _, _, err := DecodeReport(rj); err == nil {
		t.Error("unknown failure code accepted")
	}
}

// TestErrorCodeTaxonomy pins the sentinel → code mapping: every engine
// and queue sentinel must map to its stable API code, wrapped or not, and
// SentinelFor must invert the mapping so decoded failures classify with
// errors.Is exactly like fresh ones.
func TestErrorCodeTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{core.ErrCellTooWide, "cell_too_wide"},
		{core.ErrNoInsertionPoint, "no_insertion_point"},
		{core.ErrAuditFailed, "audit_failed"},
		{core.ErrCanceled, "canceled"},
		{core.ErrCellTimeout, "cell_timeout"},
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
		sentinel, ok := SentinelFor(c.code)
		if !ok {
			t.Errorf("SentinelFor(%q) missing", c.code)
			continue
		}
		// The sentinel a code names must classify (errors.Is) to the same
		// code — the mapping round-trips.
		if got := ErrorCode(sentinel); got != c.code {
			t.Errorf("round trip for %q broke: %q", c.code, got)
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
	if _, ok := SentinelFor("definitely_not_a_code"); ok {
		t.Error("SentinelFor accepted an unknown code")
	}
}
