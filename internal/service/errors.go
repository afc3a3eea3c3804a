package service

import (
	"context"
	"errors"

	"mrlegal/internal/core"
	"mrlegal/internal/jobq"
)

// Error codes of the HTTP API. Every error the service reports — in a
// job's failure list, a job's terminal error, or an error response body —
// carries exactly one of these stable machine-readable codes, derived
// from the engine's error taxonomy (internal/core) and the queue's
// admission errors (internal/jobq) with errors.Is. Codes are part of the
// API contract (docs/SERVICE.md); adding one is fine, renaming one is a
// breaking change.
const (
	// Engine taxonomy (per-cell failures and run errors).
	CodeCellTooWide      = "cell_too_wide"
	CodeNoInsertionPoint = "no_insertion_point"
	CodeAuditFailed      = "audit_failed"
	CodeCanceled         = "canceled"
	CodeCellTimeout      = "cell_timeout"
	CodeFixedCell        = "fixed_cell"
	CodeInvalidWidth     = "invalid_width"
	CodeInvalidTarget    = "invalid_target"
	CodePanicked         = "panicked"
	CodeRoundsExhausted  = "rounds_exhausted"
	CodeRollbackFailed   = "rollback_failed"

	// Queue / job lifecycle.
	CodeQueueFull        = "queue_full"
	CodeTenantLimit      = "tenant_limit"
	CodeShuttingDown     = "shutting_down"
	CodeJobPanicked      = "job_panicked"
	CodeJobCanceled      = "job_canceled"
	CodeJobNotFound      = "job_not_found"
	CodeDeadlineExceeded = "deadline_exceeded"

	// Incremental (ECO) sessions.
	CodeSessionLimit    = "session_limit"
	CodeSessionNotFound = "session_not_found"
	CodeSessionClosed   = "session_closed"
	CodeNotLegal        = "not_legal"
	CodeUnknownCell     = "unknown_cell"

	// Transport-level request problems.
	CodeBadRequest   = "bad_request"
	CodeBodyTooLarge = "body_too_large"
	CodeNotFinished  = "not_finished"
	CodeInternal     = "internal"
)

// codeTable orders matter: errors.Is walks wrap chains, and more specific
// sentinels must be probed before broader ones (jobq.ErrCanceled wraps
// nothing, but a job canceled by deadline also matches
// context.DeadlineExceeded — the lifecycle sentinel wins).
var codeTable = []struct {
	err  error
	code string
}{
	{core.ErrCellTooWide, CodeCellTooWide},
	{core.ErrNoInsertionPoint, CodeNoInsertionPoint},
	{core.ErrAuditFailed, CodeAuditFailed},
	{core.ErrCellTimeout, CodeCellTimeout},
	{core.ErrCanceled, CodeCanceled},
	{core.ErrFixedCell, CodeFixedCell},
	{core.ErrInvalidWidth, CodeInvalidWidth},
	{core.ErrInvalidTarget, CodeInvalidTarget},
	{core.ErrPanicked, CodePanicked},
	{core.ErrRoundsExhausted, CodeRoundsExhausted},
	{core.ErrRollbackFailed, CodeRollbackFailed},
	{core.ErrNotLegal, CodeNotLegal},
	{core.ErrSessionClosed, CodeSessionClosed},
	{core.ErrUnknownCell, CodeUnknownCell},
	{jobq.ErrSessionLimit, CodeSessionLimit},
	{jobq.ErrSessionNotFound, CodeSessionNotFound},
	{jobq.ErrQueueFull, CodeQueueFull},
	{jobq.ErrTenantLimit, CodeTenantLimit},
	{jobq.ErrShuttingDown, CodeShuttingDown},
	{jobq.ErrJobPanicked, CodeJobPanicked},
	{jobq.ErrCanceled, CodeJobCanceled},
	{jobq.ErrNotFound, CodeJobNotFound},
	{context.DeadlineExceeded, CodeDeadlineExceeded},
	{context.Canceled, CodeJobCanceled},
}

// ErrorCode maps any error surfaced by the service to its stable API
// code. Unknown errors map to CodeInternal; nil maps to "".
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	for _, e := range codeTable {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return CodeInternal
}
