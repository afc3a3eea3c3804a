package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

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

// codeTable decides the HTTP answer to every error the service reports:
// its code and its status. Order matters: errors.Is walks wrap chains,
// and more specific sentinels must be probed before broader ones
// (jobq.ErrCanceled wraps nothing, but a job canceled by deadline also
// matches context.DeadlineExceeded — the lifecycle sentinel wins). An
// error no row matches is internal, 500.
var codeTable = []struct {
	err    error
	code   string
	status int
}{
	{core.ErrCellTooWide, CodeCellTooWide, http.StatusConflict},
	{core.ErrNoInsertionPoint, CodeNoInsertionPoint, http.StatusConflict},
	{core.ErrAuditFailed, CodeAuditFailed, http.StatusConflict},
	{core.ErrCanceled, CodeCanceled, http.StatusConflict},
	{core.ErrFixedCell, CodeFixedCell, http.StatusBadRequest},
	{core.ErrInvalidWidth, CodeInvalidWidth, http.StatusBadRequest},
	{core.ErrInvalidTarget, CodeInvalidTarget, http.StatusBadRequest},
	{core.ErrPanicked, CodePanicked, http.StatusConflict},
	{core.ErrRoundsExhausted, CodeRoundsExhausted, http.StatusConflict},
	{core.ErrRollbackFailed, CodeRollbackFailed, http.StatusInternalServerError},
	{core.ErrNotLegal, CodeNotLegal, http.StatusConflict},
	{core.ErrSessionClosed, CodeSessionClosed, http.StatusNotFound},
	{core.ErrUnknownCell, CodeUnknownCell, http.StatusBadRequest},
	{jobq.ErrSessionLimit, CodeSessionLimit, http.StatusTooManyRequests},
	{jobq.ErrSessionNotFound, CodeSessionNotFound, http.StatusNotFound},
	{jobq.ErrQueueFull, CodeQueueFull, http.StatusTooManyRequests},
	{jobq.ErrTenantLimit, CodeTenantLimit, http.StatusTooManyRequests},
	{jobq.ErrShuttingDown, CodeShuttingDown, http.StatusServiceUnavailable},
	{jobq.ErrJobPanicked, CodeJobPanicked, http.StatusInternalServerError},
	{jobq.ErrCanceled, CodeJobCanceled, http.StatusConflict},
	{jobq.ErrNotFound, CodeJobNotFound, http.StatusNotFound},
	{context.DeadlineExceeded, CodeDeadlineExceeded, http.StatusConflict},
	{context.Canceled, CodeJobCanceled, http.StatusConflict},
	{errBadRequest, CodeBadRequest, http.StatusBadRequest},
	{errBodyTooLarge, CodeBodyTooLarge, http.StatusRequestEntityTooLarge},
	{errNotFinished, CodeNotFinished, http.StatusConflict},
}

// The server's own request errors. Each is a requestError whose row is
// one of these sentinels, or jobq.ErrShuttingDown for errDraining.
var (
	errBadRequest   = errors.New("bad request")
	errBodyTooLarge = errors.New("request body too large")
	errNotFinished  = errors.New("job not finished")
	errDraining     = &requestError{"server is draining", jobq.ErrShuttingDown}
)

// requestError is an error the server raises about a request itself: the
// message the client reads, and the codeTable row that answers it.
type requestError struct {
	msg string
	row error
}

func (e *requestError) Error() string { return e.msg }
func (e *requestError) Unwrap() error { return e.row }

// badf is a client error: the submission itself is at fault.
func badf(format string, args ...any) error {
	return &requestError{fmt.Sprintf(format, args...), errBadRequest}
}

// answer returns err's code and HTTP status from codeTable.
func answer(err error) (code string, status int) {
	for _, e := range codeTable {
		if errors.Is(err, e.err) {
			return e.code, e.status
		}
	}
	return CodeInternal, http.StatusInternalServerError
}

// ErrorCode maps any error surfaced by the service to its stable API
// code. Unknown errors map to CodeInternal; nil maps to "".
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	code, _ := answer(err)
	return code
}

// fail answers err on route with the status, code and message codeTable
// gives it, and a Retry-After hint where asking again later can succeed:
// a 429, a 503 or not_finished. Once a delta stream has sent its first
// frame its status is spent, so the error goes out as the stream's last
// frame and only the request metric records its status.
func (s *Server) fail(w http.ResponseWriter, route string, err error) {
	code, status := answer(err)
	e := &ErrorJSON{Code: code, Message: err.Error()}
	if fs, ok := w.(*frameStream); ok && fs.started {
		payload, _ := json.Marshal(&DeltaFrameJSON{Error: e})
		_ = writeFrame(fs, payload) // the stream ends here either way
		fs.flush()
		s.httpReqs(route, status)
		return
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable || code == CodeNotFinished {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(s.cfg.RetryAfter/time.Second))))
	}
	s.writeJSON(w, route, status, map[string]*ErrorJSON{"error": e})
}
