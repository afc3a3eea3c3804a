package service

// Incremental (ECO) session endpoints (docs/SERVICE.md §8):
//
//	POST   /v1/sessions                  create: legalize a design, keep it live
//	POST   /v1/sessions/{id}/deltas      apply framed delta batches (streaming)
//	POST   /v1/sessions/{id}/checkpoint  checksum + verification snapshot
//	DELETE /v1/sessions/{id}             close, releasing the slot
//
// A session pins a legalized design in memory so ECO edits pay only for
// the perturbed neighborhood instead of a full resubmission. Admission
// is bounded exactly like jobs: jobq.SessionRegistry enforces global and
// per-tenant caps (429), and shutdown drains in-flight delta batches
// before tearing sessions down.
//
// The delta route streams: the server reads one length-prefixed frame at
// a time into a reused buffer, applies it atomically under the session
// lock, and writes one response frame before reading the next — TCP flow
// control is the backpressure. Errors before the first response frame
// are ordinary HTTP errors; later ones arrive in-band as an error frame
// (the failed batch rolled back, the session still holds the previous
// legal placement) and end the response.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/jobq"
	"mrlegal/internal/netlist"
)

// sessionState is the registry payload: the live engine session and the
// design it owns. Access is serialized by jobq.Session.Do.
type sessionState struct {
	ses *core.Session
	l   *core.Legalizer
	d   *design.Design
	nl  *netlist.Netlist
}

// SessionJSON is the session resource returned by create.
type SessionJSON struct {
	ID     string      `json:"id"`
	Tenant string      `json:"tenant"`
	Cells  int         `json:"cells"`
	Report *ReportJSON `json:"report"`
}

// CheckpointJSON is the verification snapshot returned by checkpoint.
type CheckpointJSON struct {
	ID                string `json:"id"`
	PlacementChecksum string `json:"placement_checksum"`
	Legal             bool   `json:"legal"`
	Violations        int    `json:"violations"`
	Batches           uint64 `json:"batches"`
	Deltas            uint64 `json:"deltas"`
	DirtyCells        uint64 `json:"dirty_cells"`
	// FixedPoint is present when the request asked for the oracle
	// (?oracle=1): whether a full legalization pass over the session's
	// placement is a no-op. Expensive — it runs the full engine.
	FixedPoint *bool `json:"fixed_point,omitempty"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	const route = "session_create"
	if !s.ready.Load() {
		s.retryAfter(w)
		s.writeError(w, route, http.StatusServiceUnavailable, CodeShuttingDown, "server is draining")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()

	p, bodyTenant, err := decodeSubmitBody(body, s.base, s.cfg.Limits)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, route, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		code, _ := IsBadRequest(err)
		if code == "" {
			code = CodeBadRequest
		}
		s.writeError(w, route, http.StatusBadRequest, code, err.Error())
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = bodyTenant
	}
	if tenant == "" {
		tenant = "default"
	}

	l, err := core.NewLegalizer(p.d, p.cfg)
	if err != nil {
		s.writeError(w, route, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// The initial full legalization runs inline under the job deadline
	// (Limits.MaxDeadline when the client asked for none): create is
	// synchronous — the client needs the session id and the baseline
	// checksum before streaming deltas.
	deadline := p.deadline
	if deadline <= 0 {
		deadline = s.cfg.Limits.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	rep, err := l.LegalizeBestEffort(ctx)
	if err != nil {
		s.writeError(w, route, http.StatusInternalServerError, ErrorCode(err), err.Error())
		return
	}
	ses, err := core.NewSession(l)
	if err != nil {
		// Best-effort legalization left failures (or the input was not
		// legalizable): no legal baseline, no session.
		s.writeError(w, route, http.StatusConflict, ErrorCode(err),
			fmt.Sprintf("design is not legal after initial legalization (%d failures): %v", len(rep.Failed), err))
		return
	}
	st := &sessionState{ses: ses, l: l, d: p.d, nl: p.nl}
	reg, err := s.sessions.Open(tenant, st)
	if err != nil {
		ses.Close()
		switch {
		case errors.Is(err, jobq.ErrSessionLimit):
			s.retryAfter(w)
			s.writeError(w, route, http.StatusTooManyRequests, ErrorCode(err), err.Error())
		case errors.Is(err, jobq.ErrShuttingDown):
			s.retryAfter(w)
			s.writeError(w, route, http.StatusServiceUnavailable, CodeShuttingDown, err.Error())
		default:
			s.writeError(w, route, http.StatusInternalServerError, CodeInternal, err.Error())
		}
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+reg.ID())
	s.writeJSON(w, route, http.StatusCreated, &SessionJSON{
		ID:     reg.ID(),
		Tenant: tenant,
		Cells:  len(p.d.Cells),
		Report: EncodeReport(rep, p.d.PlacementChecksum()),
	})
}

func (s *Server) handleSessionDeltas(w http.ResponseWriter, r *http.Request) {
	const route = "session_deltas"
	if !s.ready.Load() {
		s.retryAfter(w)
		s.writeError(w, route, http.StatusServiceUnavailable, CodeShuttingDown, "server is draining")
		return
	}
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, route, http.StatusNotFound, CodeSessionNotFound, err.Error())
		return
	}

	// Stream: one frame in, one frame out, one reused buffer. The
	// response status commits on the first write, so only first-frame
	// problems get a proper HTTP error; later ones go in-band. Reading
	// request frames after writing response frames needs full-duplex
	// HTTP/1 (otherwise the server closes the body on first write).
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		s.writeError(w, route, http.StatusInternalServerError, CodeInternal,
			fmt.Sprintf("streaming unsupported: %v", err))
		return
	}
	var (
		buf     []byte
		started bool
	)
	flush := func() { _ = rc.Flush() }
	start := func() {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/vnd.mrlegal.frames")
			w.WriteHeader(http.StatusOK)
		}
	}
	fail := func(status int, code, msg string) {
		if !started {
			s.writeError(w, route, status, code, msg)
			return
		}
		// In-band terminal error frame.
		payload, _ := json.Marshal(&DeltaFrameJSON{Error: &ErrorJSON{Code: code, Message: msg}})
		_ = writeFrame(w, payload)
		flush()
		s.httpReqs(route, status)
	}

	for frames := 0; ; frames++ {
		buf, err = readFrame(r.Body, buf, s.cfg.Limits.MaxFrameBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			code, _ := IsBadRequest(err)
			if code == "" {
				code = CodeBadRequest
			}
			fail(http.StatusBadRequest, code, err.Error())
			return
		}
		deltas, derr := DecodeDeltaBatch(buf, s.cfg.Limits)
		if derr != nil {
			code, _ := IsBadRequest(derr)
			if code == "" {
				code = CodeBadRequest
			}
			fail(http.StatusBadRequest, code, derr.Error())
			return
		}

		var frame *DeltaFrameJSON
		doErr := sess.Do(func(payload any) error {
			st := payload.(*sessionState)
			rep, aerr := st.ses.ApplyDelta(r.Context(), deltas)
			if aerr != nil {
				return aerr
			}
			frame = encodeDeltaFrame(rep, st.d.PlacementChecksum())
			return nil
		})
		if doErr != nil {
			status := http.StatusConflict
			switch {
			case errors.Is(doErr, jobq.ErrSessionNotFound), errors.Is(doErr, core.ErrSessionClosed):
				status = http.StatusNotFound
			case errors.Is(doErr, core.ErrUnknownCell), errors.Is(doErr, core.ErrFixedCell),
				errors.Is(doErr, core.ErrInvalidWidth), errors.Is(doErr, core.ErrInvalidTarget):
				status = http.StatusBadRequest
			case errors.Is(doErr, core.ErrRollbackFailed):
				status = http.StatusInternalServerError
			}
			// The batch rolled back; the session still holds the previous
			// legal placement, unless the rollback itself failed
			// (rollback_failed, 500), after which the session's placement
			// can no longer be trusted. The error frame ends this
			// response — the client resynchronizes via checkpoint before
			// streaming more.
			fail(status, ErrorCode(doErr), doErr.Error())
			return
		}
		start()
		payload, merr := json.Marshal(frame)
		if merr != nil {
			fail(http.StatusInternalServerError, CodeInternal, merr.Error())
			return
		}
		if werr := writeFrame(w, payload); werr != nil {
			// Client went away mid-response; nothing to send.
			s.httpReqs(route, http.StatusOK)
			return
		}
		flush()
	}
	start() // an empty stream is a valid no-op
	s.httpReqs(route, http.StatusOK)
}

func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) {
	const route = "session_checkpoint"
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, route, http.StatusNotFound, CodeSessionNotFound, err.Error())
		return
	}
	oracle := r.URL.Query().Get("oracle") == "1"

	var cp *CheckpointJSON
	doErr := sess.Do(func(payload any) error {
		st := payload.(*sessionState)
		viols := st.ses.Verify(16)
		stats := st.ses.Stats()
		cp = &CheckpointJSON{
			ID:                sess.ID(),
			PlacementChecksum: fmt.Sprintf("%016x", st.d.PlacementChecksum()),
			Legal:             len(viols) == 0,
			Violations:        len(viols),
			Batches:           stats.Batches,
			Deltas:            stats.Deltas,
			DirtyCells:        stats.DirtyCells,
		}
		if oracle {
			fp, ferr := st.ses.FixedPoint(r.Context())
			if ferr != nil {
				return ferr
			}
			cp.FixedPoint = &fp
		}
		return nil
	})
	if doErr != nil {
		if errors.Is(doErr, jobq.ErrSessionNotFound) {
			s.writeError(w, route, http.StatusNotFound, CodeSessionNotFound, doErr.Error())
			return
		}
		s.writeError(w, route, http.StatusInternalServerError, ErrorCode(doErr), doErr.Error())
		return
	}
	s.writeJSON(w, route, http.StatusOK, cp)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	const route = "session_close"
	id := r.PathValue("id")
	if err := s.sessions.Close(id); err != nil {
		s.writeError(w, route, http.StatusNotFound, CodeSessionNotFound, err.Error())
		return
	}
	s.writeJSON(w, route, http.StatusOK, map[string]any{"id": id, "closed": true})
}
