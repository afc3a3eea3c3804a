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
// per-tenant caps (429) before the initial legalization runs, and
// shutdown drains in-flight delta batches before tearing sessions down.
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
	"fmt"
	"io"
	"net/http"

	"mrlegal/internal/core"
)

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
	// placement would be a no-op. It runs no engine pass: it checks that
	// every live movable cell is placed and that the grid holds exactly
	// the design's placement, a pass over every cell.
	FixedPoint *bool `json:"fixed_point,omitempty"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	const route = "session_create"
	p, tenant := s.admit(w, r, route)
	if p == nil {
		return
	}
	// The registry takes the session's slot before the initial full
	// legalization runs, inline under the job deadline: create is
	// synchronous — the client needs the session id and the baseline
	// checksum before streaming deltas. Close cancels the legalization
	// once its drain deadline has passed, and the open answers 503.
	var rep *core.Report
	var sum uint64
	reg, err := s.sessions.Open(tenant, func() (any, error) {
		ctx, cancel := context.WithTimeout(r.Context(), p.deadline)
		defer cancel()
		defer context.AfterFunc(s.opensCtx, cancel)()
		l, lrep, err := legalize(ctx, p)
		if s.opensCtx.Err() != nil {
			return nil, errDraining
		}
		if err != nil {
			return nil, err
		}
		rep = lrep
		ses, err := core.NewSession(l)
		if err != nil {
			// Best-effort legalization left failures (or the input was
			// not legalizable): no legal baseline, no session.
			return nil, fmt.Errorf("design is not legal after initial legalization (%d failures): %w", len(lrep.Failed), err)
		}
		sum = ses.PlacementChecksum()
		return ses, nil
	})
	if err != nil {
		s.fail(w, route, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+reg.ID())
	s.writeJSON(w, route, http.StatusCreated, &SessionJSON{
		ID:     reg.ID(),
		Tenant: tenant,
		Cells:  len(p.d.Cells),
		Report: EncodeReport(rep, sum),
	})
}

// frameStream is a delta route's response. Its status and content type
// go out with the first frame, and fail sends an error in-band after that.
type frameStream struct {
	http.ResponseWriter
	rc      *http.ResponseController
	started bool
}

func (f *frameStream) start() {
	if !f.started {
		f.started = true
		f.Header().Set("Content-Type", "application/vnd.mrlegal.frames")
		f.WriteHeader(http.StatusOK)
	}
}

func (f *frameStream) flush() { _ = f.rc.Flush() }

func (s *Server) handleSessionDeltas(w http.ResponseWriter, r *http.Request) {
	const route = "session_deltas"
	if !s.ready.Load() {
		s.fail(w, route, errDraining)
		return
	}
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, route, err)
		return
	}

	// Stream: one frame in, one frame out, one reused buffer. The
	// response status commits on the first write, so only first-frame
	// problems get a proper HTTP error; later ones go in-band. Reading
	// request frames after writing response frames needs full-duplex
	// HTTP/1 (otherwise the server closes the body on first write).
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		s.fail(w, route, fmt.Errorf("streaming unsupported: %v", err))
		return
	}
	out := &frameStream{ResponseWriter: w, rc: rc}
	var buf []byte
	for {
		buf, err = readFrame(r.Body, buf, s.cfg.Limits.MaxFrameBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.fail(out, route, err)
			return
		}
		deltas, derr := DecodeDeltaBatch(buf, s.cfg.Limits)
		if derr != nil {
			s.fail(out, route, derr)
			return
		}

		var frame *DeltaFrameJSON
		doErr := sess.Do(func(payload any) error {
			ses := payload.(*core.Session)
			rep, aerr := ses.ApplyDelta(r.Context(), deltas)
			if aerr != nil {
				return aerr
			}
			frame = encodeDeltaFrame(rep, ses.PlacementChecksum())
			return nil
		})
		if doErr != nil {
			// The batch rolled back; the session still holds the previous
			// legal placement, unless the rollback itself failed
			// (rollback_failed), after which the session's placement can
			// no longer be trusted. The error frame ends this response —
			// the client resynchronizes via checkpoint before streaming
			// more.
			s.fail(out, route, doErr)
			return
		}
		out.start()
		payload, merr := json.Marshal(frame)
		if merr != nil {
			s.fail(out, route, merr)
			return
		}
		if werr := writeFrame(out, payload); werr != nil {
			// Client went away mid-response; nothing to send.
			s.httpReqs(route, http.StatusOK)
			return
		}
		out.flush()
	}
	out.start() // an empty stream is a valid no-op
	s.httpReqs(route, http.StatusOK)
}

func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) {
	const route = "session_checkpoint"
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, route, err)
		return
	}
	oracle := r.URL.Query().Get("oracle") == "1"

	var cp *CheckpointJSON
	doErr := sess.Do(func(payload any) error {
		ses := payload.(*core.Session)
		viols := ses.Verify(16)
		stats := ses.Stats()
		cp = &CheckpointJSON{
			ID:                sess.ID(),
			PlacementChecksum: fmt.Sprintf("%016x", ses.Design().PlacementChecksum()),
			Legal:             len(viols) == 0,
			Violations:        len(viols),
			Batches:           stats.Batches,
			Deltas:            stats.Deltas,
			DirtyCells:        stats.DirtyCells,
		}
		if oracle {
			fp, ferr := ses.FixedPoint(r.Context())
			if ferr != nil {
				return ferr
			}
			cp.FixedPoint = &fp
		}
		return nil
	})
	if doErr != nil {
		s.fail(w, route, doErr)
		return
	}
	s.writeJSON(w, route, http.StatusOK, cp)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	const route = "session_close"
	id := r.PathValue("id")
	if err := s.sessions.Close(id); err != nil {
		s.fail(w, route, err)
		return
	}
	s.writeJSON(w, route, http.StatusOK, map[string]any{"id": id, "closed": true})
}
