package service

// The submission decoder as it stood before it read the body whole and
// took design_text out of encoding/json's hands, kept as the reference
// FuzzDecodeSubmit holds decodeSubmitBody to: renamed, and without the
// JSON design and Bookshelf sources that both have dropped since.
// It shares the helpers that did not change: wrapDecodeErr, applyConfig,
// jobDeadline (the deadline clamp, shared since it stopped overflowing on
// a huge deadline_ms), validateDesign (now the Limits caps alone) and
// iodesign.Read, which FuzzRead holds to its own reference and which
// checks its design with Design.Validate and Netlist.Validate.

import (
	"encoding/json"
	"io"
	"strings"

	"mrlegal/internal/core"
	"mrlegal/internal/iodesign"
)

// referenceDecodeSubmitBody is DecodeSubmit plus access to the decoded request
// envelope (the submit handler needs the tenant field).
func referenceDecodeSubmitBody(r io.Reader, base core.Config, lim Limits) (p *jobPayload, req *SubmitRequest, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, req, err = nil, nil, badf("invalid design: %v", rec)
		}
	}()

	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	req = &SubmitRequest{}
	if derr := dec.Decode(req); derr != nil {
		return nil, nil, wrapDecodeErr(derr)
	}
	// Trailing garbage after the JSON document is a malformed request,
	// not an ignorable extra.
	if derr := dec.Decode(new(json.RawMessage)); derr != io.EOF {
		if derr == nil {
			return nil, nil, badf("request body holds more than one JSON document")
		}
		return nil, nil, wrapDecodeErr(derr)
	}
	p, err = referenceDecodeSubmitReq(req, base, lim)
	return p, req, err
}

func referenceDecodeSubmitReq(req *SubmitRequest, base core.Config, lim Limits) (*jobPayload, error) {
	if req.DesignText == "" {
		return nil, badf("design_text is required")
	}
	d, nl, err := iodesign.Read(strings.NewReader(req.DesignText))
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
