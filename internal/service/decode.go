package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/netlist"
)

// Limits bounds what a submission may ask for. The zero value applies
// the listed defaults; admission rejects anything beyond them with a
// 4xx, so a hostile payload can cost at most one bounded decode.
type Limits struct {
	// MaxCells caps the movable+fixed cell count of a design. Default
	// 2,000,000.
	MaxCells int
	// MaxRows caps the row count. Default 100,000.
	MaxRows int
	// MaxNets caps the net count. Default 4,000,000.
	MaxNets int
	// MaxDeadline is the deadline of every job and session open; a
	// request's deadline_ms can only shorten it. Default 10m.
	MaxDeadline time.Duration
	// MaxDeltasPerBatch caps the deltas one session frame may carry.
	// Default 10,000.
	MaxDeltasPerBatch int
	// MaxFrameBytes caps one session delta frame. Default 1 MiB.
	MaxFrameBytes int
}

func (l *Limits) defaults() {
	if l.MaxCells <= 0 {
		l.MaxCells = 2_000_000
	}
	if l.MaxRows <= 0 {
		l.MaxRows = 100_000
	}
	if l.MaxNets <= 0 {
		l.MaxNets = 4_000_000
	}
	if l.MaxDeadline <= 0 {
		l.MaxDeadline = 10 * time.Minute
	}
	if l.MaxDeltasPerBatch <= 0 {
		l.MaxDeltasPerBatch = 10_000
	}
	if l.MaxFrameBytes <= 0 {
		l.MaxFrameBytes = 1 << 20
	}
}

// SubmitRequest is the POST /v1/jobs payload.
type SubmitRequest struct {
	// Tenant identifies the submitter for admission control; the
	// X-Tenant header takes precedence. Empty means "default".
	Tenant string `json:"tenant,omitempty"`

	// DesignText is the design, required, in the mrlegal text format
	// (internal/iodesign): the exact bytes `mrlegal -o -` emits. Clients
	// set it; the server decodes the string from the body itself
	// (spliceDesignText) and never reads this field.
	DesignText string `json:"design_text,omitempty"`

	// Config overrides the server's base legalizer configuration.
	Config *ConfigJSON `json:"config,omitempty"`

	// DeadlineMS shortens the job's deadline, Limits.MaxDeadline, to
	// this many milliseconds; 0 keeps it. When the deadline expires the
	// job still returns a best-effort report with timed_out set.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ConfigJSON overrides legalizer parameters per job. Pointers
// distinguish "absent" from zero values. core.Config.Validate ranges
// the result.
type ConfigJSON struct {
	Rx         *int   `json:"rx,omitempty"`
	Ry         *int   `json:"ry,omitempty"`
	PowerAlign *bool  `json:"power_align,omitempty"`
	ExactEval  *bool  `json:"exact_eval,omitempty"`
	Seed       *int64 `json:"seed,omitempty"`
	MaxRounds  *int   `json:"max_rounds,omitempty"`
	AuditEvery *int   `json:"audit_every,omitempty"`
	// Constraints is a ';'-separated constraint-plugin spec string
	// (internal/constraint.Parse). It replaces the server's base set for
	// this job; an explicit "" clears it.
	Constraints *string `json:"constraints,omitempty"`
}

// jobPayload is the decoded, validated unit of work handed to the queue.
type jobPayload struct {
	d        *design.Design
	nl       *netlist.Netlist
	cfg      core.Config
	deadline time.Duration
}

// jobResult is what a finished job stores: the engine report, the
// legalized design (for the placement endpoint) and its checksum.
type jobResult struct {
	rep      *core.Report
	d        *design.Design
	nl       *netlist.Netlist
	checksum uint64
}

// DecodeSubmit reads and validates one job submission. Any problem with
// the payload — malformed JSON, an oversized body (io errors from
// http.MaxBytesReader pass through), bogus dimensions, out-of-range
// parameters — returns an error, never a panic: panics from the
// underlying parsers are converted to bad-request errors at this
// boundary, and the fuzz harness (fuzz_test.go) holds the contract.
func DecodeSubmit(r io.Reader, base core.Config, lim Limits) (*jobPayload, error) {
	lim.defaults()
	p, _, err := decodeSubmitBody(r, base, lim)
	return p, err
}

// decodeSubmitBody is DecodeSubmit plus the request's tenant field (the
// submit handler needs it). It reads the body whole, decodes design_text
// itself straight into the bytes iodesign.Read parses, and hands
// encoding/json the body with that string emptied (spliceDesignText), so
// every other field keeps encoding/json's handling. The design text is
// always the splice's: the server never reads SubmitRequest.DesignText.
func decodeSubmitBody(r io.Reader, base core.Config, lim Limits) (p *jobPayload, tenant string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, tenant, err = nil, "", badf("invalid design: %v", rec)
		}
	}()

	var buf bytes.Buffer
	if _, rerr := io.Copy(&buf, r); rerr != nil {
		return nil, "", wrapDecodeErr(rerr)
	}
	body, text := spliceDesignText(buf.Bytes())
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req := &SubmitRequest{}
	if derr := dec.Decode(req); derr != nil {
		return nil, "", wrapDecodeErr(derr)
	}
	// Trailing garbage after the JSON document is a malformed request,
	// not an ignorable extra.
	if derr := dec.Decode(new(json.RawMessage)); derr != io.EOF {
		if derr == nil {
			return nil, "", badf("request body holds more than one JSON document")
		}
		return nil, "", wrapDecodeErr(derr)
	}
	p, err = decodeSubmitReq(req, text, base, lim)
	return p, req.Tenant, err
}

// wrapDecodeErr tells a body over the http.MaxBytesReader cap from a
// malformed one.
func wrapDecodeErr(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &requestError{fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), errBodyTooLarge}
	}
	return badf("malformed request: %v", err)
}

// decodeSubmitReq builds the payload from a decoded request whose
// design_text is text.
func decodeSubmitReq(req *SubmitRequest, text []byte, base core.Config, lim Limits) (*jobPayload, error) {
	if len(text) == 0 {
		return nil, badf("design_text is required")
	}
	d, nl, err := iodesign.Read(bytes.NewReader(text))
	if err != nil {
		return nil, badf("design_text: %v", err)
	}
	if err := validateDesign(d, nl, lim); err != nil {
		return nil, err
	}

	cfg, err := applyConfig(base, req.Config)
	if err != nil {
		return nil, err
	}

	deadline, err := jobDeadline(req.DeadlineMS, lim)
	if err != nil {
		return nil, err
	}
	return &jobPayload{d: d, nl: nl, cfg: cfg, deadline: deadline}, nil
}

// jobDeadline turns a request's deadline_ms into the job deadline:
// lim.MaxDeadline, which a positive deadline_ms can only shorten. The
// comparison is in milliseconds, because a huge deadline_ms converted to
// a time.Duration first would wrap.
func jobDeadline(ms int64, lim Limits) (time.Duration, error) {
	if ms < 0 {
		return 0, badf("deadline_ms must be non-negative")
	}
	if ms == 0 || ms > lim.MaxDeadline.Milliseconds() {
		return lim.MaxDeadline, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// validateDesign applies the service's resource limits. Its structure
// iodesign.Read has already checked (Design.Validate, Netlist.Validate).
func validateDesign(d *design.Design, nl *netlist.Netlist, lim Limits) error {
	if len(d.Rows) > lim.MaxRows {
		return badf("design: %d rows exceeds the limit of %d", len(d.Rows), lim.MaxRows)
	}
	if len(d.Cells) > lim.MaxCells {
		return badf("design: %d cells exceeds the limit of %d", len(d.Cells), lim.MaxCells)
	}
	if len(nl.Nets) > lim.MaxNets {
		return badf("design: %d nets exceeds the limit of %d", len(nl.Nets), lim.MaxNets)
	}
	return nil
}

// applyConfig overlays the fields cj carries on base and answers
// core.Config.Validate's verdict on the result as a bad request.
func applyConfig(base core.Config, cj *ConfigJSON) (core.Config, error) {
	cfg := base
	if cj == nil {
		return cfg, nil
	}
	if cj.Rx != nil {
		cfg.Rx = *cj.Rx
	}
	if cj.Ry != nil {
		cfg.Ry = *cj.Ry
	}
	if cj.MaxRounds != nil {
		cfg.MaxRounds = *cj.MaxRounds
	}
	if cj.AuditEvery != nil {
		cfg.AuditEvery = *cj.AuditEvery
	}
	if cj.PowerAlign != nil {
		cfg.PowerAlign = *cj.PowerAlign
	}
	if cj.ExactEval != nil {
		cfg.ExactEval = *cj.ExactEval
	}
	if cj.Seed != nil {
		cfg.Seed = *cj.Seed
	}
	if cj.Constraints != nil {
		set, err := constraint.Parse(*cj.Constraints)
		if err != nil {
			return cfg, badf("config: constraints: %v", err)
		}
		cfg.Constraints = set
	}
	if err := cfg.Validate(); err != nil {
		return cfg, badf("config: %v", err)
	}
	return cfg, nil
}
