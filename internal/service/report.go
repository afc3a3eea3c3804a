package service

import (
	"fmt"

	"mrlegal/internal/core"
)

// FailureJSON is one per-cell failure on the wire. Code is the stable
// taxonomy code (ErrorCode); Message is the human-readable error text.
type FailureJSON struct {
	Cell    int    `json:"cell"`
	Name    string `json:"name"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ReportJSON is the wire form of core.Report plus the placement
// checksum. The checksum travels as a hex string because uint64 values
// exceed the integer range many JSON consumers handle exactly.
type ReportJSON struct {
	Placed         int           `json:"placed"`
	Failed         []FailureJSON `json:"failed,omitempty"`
	Rounds         int           `json:"rounds"`
	TimedOut       bool          `json:"timed_out,omitempty"`
	AuditRuns      int           `json:"audit_runs,omitempty"`
	AuditRollbacks int           `json:"audit_rollbacks,omitempty"`
	TotalDisp      float64       `json:"total_disp"`
	AvgDisp        float64       `json:"avg_disp"`
	MaxDisp        float64       `json:"max_disp"`

	// PlacementChecksum is design.PlacementChecksum of the legalized
	// design, as 16 hex digits. Comparing it against a direct library
	// call on the same input proves the service returned byte-identical
	// results.
	PlacementChecksum string `json:"placement_checksum"`
}

// EncodeReport converts an engine report to its wire form.
func EncodeReport(rep *core.Report, checksum uint64) *ReportJSON {
	rj := &ReportJSON{
		Placed:            rep.Placed,
		Rounds:            rep.Rounds,
		TimedOut:          rep.TimedOut,
		AuditRuns:         rep.AuditRuns,
		AuditRollbacks:    rep.AuditRollbacks,
		TotalDisp:         rep.TotalDisp,
		AvgDisp:           rep.AvgDisp,
		MaxDisp:           rep.MaxDisp,
		PlacementChecksum: fmt.Sprintf("%016x", checksum),
	}
	for _, f := range rep.Failed {
		rj.Failed = append(rj.Failed, FailureJSON{
			Cell:    int(f.Cell),
			Name:    f.Name,
			Code:    ErrorCode(f.Err),
			Message: f.Err.Error(),
		})
	}
	return rj
}
