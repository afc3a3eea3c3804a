package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"mrlegal/internal/bookshelf"
	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/geom"
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
	// MaxDeadline caps the client-requested job deadline and the per-job
	// cell timeout. Default 10m.
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

// SubmitRequest is the POST /v1/jobs payload. Exactly one of DesignText,
// Design or Bookshelf must be present.
type SubmitRequest struct {
	// Tenant identifies the submitter for admission control; the
	// X-Tenant header takes precedence. Empty means "default".
	Tenant string `json:"tenant,omitempty"`

	// DesignText is a design in the mrlegal text format
	// (internal/iodesign): the exact bytes `mrlegal -o -` emits. Clients
	// set it; the server decodes the string from the body itself
	// (spliceDesignText) and never reads this field.
	DesignText string `json:"design_text,omitempty"`

	// Design is a structured JSON design.
	Design *DesignJSON `json:"design,omitempty"`

	// Bookshelf carries the component files of a Bookshelf benchmark.
	Bookshelf *BookshelfJSON `json:"bookshelf,omitempty"`

	// Config overrides the server's base legalizer configuration.
	Config *ConfigJSON `json:"config,omitempty"`

	// DeadlineMS bounds the job's execution in milliseconds (0 = server
	// default; capped by Limits.MaxDeadline). When the deadline expires
	// the job still returns a best-effort report with timed_out set.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// DesignJSON is the structured design payload.
type DesignJSON struct {
	Name      string       `json:"name"`
	SiteW     int64        `json:"site_w"`
	SiteH     int64        `json:"site_h"`
	Rows      []RowJSON    `json:"rows"`
	Blockages []RectJSON   `json:"blockages,omitempty"`
	Masters   []MasterJSON `json:"masters"`
	Cells     []CellJSON   `json:"cells"`
	Nets      []NetJSON    `json:"nets,omitempty"`
}

// RowJSON is one placement row: index y (must equal its position in the
// rows array), spanning sites [lo, hi).
type RowJSON struct {
	Y  int `json:"y"`
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// RectJSON is a blockage rectangle in site units.
type RectJSON struct {
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`
}

// MasterJSON is a library cell: width in sites, height in rows, bottom
// rail "VSS" or "VDD".
type MasterJSON struct {
	Name   string `json:"name"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Rail   string `json:"rail"`
}

// CellJSON is one cell instance. GX/GY is the input (global placement)
// position; X/Y with Placed set records an existing legal placement.
type CellJSON struct {
	Name   string  `json:"name"`
	Master int     `json:"master"`
	GX     float64 `json:"gx"`
	GY     float64 `json:"gy"`
	X      int     `json:"x,omitempty"`
	Y      int     `json:"y,omitempty"`
	Placed bool    `json:"placed,omitempty"`
	Fixed  bool    `json:"fixed,omitempty"`
}

// NetJSON is one net; pins reference cells by index (-1 = fixed pad).
type NetJSON struct {
	Name string    `json:"name"`
	Pins []PinJSON `json:"pins"`
}

// PinJSON is one pin: cell index and offset from the cell origin.
type PinJSON struct {
	Cell int     `json:"cell"`
	DX   float64 `json:"dx"`
	DY   float64 `json:"dy"`
}

// BookshelfJSON carries a Bookshelf benchmark inline: the file contents
// keyed by name, plus the .aux entry point.
type BookshelfJSON struct {
	Aux   string            `json:"aux"`
	Files map[string]string `json:"files"`
}

// ConfigJSON overrides legalizer parameters per job. Pointers
// distinguish "absent" from zero values.
type ConfigJSON struct {
	Rx               *int   `json:"rx,omitempty"`
	Ry               *int   `json:"ry,omitempty"`
	PowerAlign       *bool  `json:"power_align,omitempty"`
	ExactEval        *bool  `json:"exact_eval,omitempty"`
	Seed             *int64 `json:"seed,omitempty"`
	MaxRounds        *int   `json:"max_rounds,omitempty"`
	ExhaustiveSearch *bool  `json:"exhaustive_search,omitempty"`
	CellTimeoutMS    *int64 `json:"cell_timeout_ms,omitempty"`
	AuditEvery       *int   `json:"audit_every,omitempty"`
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
	sources := 0
	if len(text) > 0 {
		sources++
	}
	if req.Design != nil {
		sources++
	}
	if req.Bookshelf != nil {
		sources++
	}
	if sources != 1 {
		return nil, badf("exactly one of design_text, design or bookshelf is required (got %d)", sources)
	}

	var (
		d   *design.Design
		nl  *netlist.Netlist
		err error
	)
	switch {
	case len(text) > 0:
		d, nl, err = iodesign.Read(bytes.NewReader(text))
		if err != nil {
			return nil, badf("design_text: %v", err)
		}
	case req.Design != nil:
		d, nl, err = buildDesign(req.Design, lim)
		if err != nil {
			return nil, err
		}
	default:
		d, nl, err = readBookshelf(req.Bookshelf)
		if err != nil {
			return nil, err
		}
	}
	if err := validateDesign(d, nl, lim); err != nil {
		return nil, err
	}

	cfg, err := applyConfig(base, req.Config, lim)
	if err != nil {
		return nil, err
	}

	deadline, err := jobDeadline(req.DeadlineMS, lim)
	if err != nil {
		return nil, err
	}
	return &jobPayload{d: d, nl: nl, cfg: cfg, deadline: deadline}, nil
}

// jobDeadline turns a request's deadline_ms into the job deadline,
// clamped to lim.MaxDeadline. The clamp compares milliseconds, because
// a huge deadline_ms converted to a time.Duration first would wrap.
func jobDeadline(ms int64, lim Limits) (time.Duration, error) {
	if ms < 0 {
		return 0, badf("deadline_ms must be non-negative")
	}
	if ms > lim.MaxDeadline.Milliseconds() {
		return lim.MaxDeadline, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func buildDesign(dj *DesignJSON, lim Limits) (*design.Design, *netlist.Netlist, error) {
	const maxCoord = 1 << 30 // keeps every span/area computation far from overflow
	if dj.SiteW < 1 || dj.SiteH < 1 {
		return nil, nil, badf("design: site dimensions must be positive (got %d x %d)", dj.SiteW, dj.SiteH)
	}
	if len(dj.Rows) == 0 {
		return nil, nil, badf("design: at least one row is required")
	}
	if len(dj.Rows) > lim.MaxRows {
		return nil, nil, badf("design: %d rows exceeds the limit of %d", len(dj.Rows), lim.MaxRows)
	}
	if len(dj.Cells) > lim.MaxCells {
		return nil, nil, badf("design: %d cells exceeds the limit of %d", len(dj.Cells), lim.MaxCells)
	}
	if len(dj.Masters) == 0 && len(dj.Cells) > 0 {
		return nil, nil, badf("design: cells without masters")
	}

	d := design.New(dj.Name, dj.SiteW, dj.SiteH)
	for i, r := range dj.Rows {
		if r.Y != i {
			return nil, nil, badf("design: rows[%d] has y=%d; rows must be listed in index order", i, r.Y)
		}
		if r.Lo >= r.Hi || r.Lo < -maxCoord || r.Hi > maxCoord {
			return nil, nil, badf("design: rows[%d] span [%d, %d) is empty or out of range", i, r.Lo, r.Hi)
		}
		d.Rows = append(d.Rows, design.Row{Y: r.Y, Span: geom.Span{Lo: r.Lo, Hi: r.Hi}})
	}
	for i, b := range dj.Blockages {
		if b.W < 0 || b.H < 0 || abs(b.X) > maxCoord || abs(b.Y) > maxCoord || b.W > maxCoord || b.H > maxCoord {
			return nil, nil, badf("design: blockages[%d] has bogus geometry", i)
		}
		d.Blockages = append(d.Blockages, geom.Rect{X: b.X, Y: b.Y, W: b.W, H: b.H})
	}
	for i, m := range dj.Masters {
		if m.Width < 1 || m.Height < 1 || m.Width > maxCoord || m.Height > len(dj.Rows) {
			return nil, nil, badf("design: masters[%d] (%q) has bogus size %dx%d", i, m.Name, m.Width, m.Height)
		}
		rail := design.VSS
		switch m.Rail {
		case "", "VSS":
		case "VDD":
			rail = design.VDD
		default:
			return nil, nil, badf("design: masters[%d] has unknown rail %q", i, m.Rail)
		}
		d.AddMaster(design.Master{Name: m.Name, Width: m.Width, Height: m.Height, BottomRail: rail})
	}
	for i, c := range dj.Cells {
		if c.Master < 0 || c.Master >= len(d.Lib) {
			return nil, nil, badf("design: cells[%d] (%q) references master %d of %d", i, c.Name, c.Master, len(d.Lib))
		}
		if !finite(c.GX) || !finite(c.GY) || math.Abs(c.GX) > maxCoord || math.Abs(c.GY) > maxCoord {
			return nil, nil, badf("design: cells[%d] has bogus input position (%v, %v)", i, c.GX, c.GY)
		}
		id := d.AddCell(c.Name, c.Master, c.GX, c.GY)
		if c.Placed {
			if abs(c.X) > maxCoord || c.Y < 0 || c.Y >= len(d.Rows) {
				return nil, nil, badf("design: cells[%d] placed at bogus (%d, %d)", i, c.X, c.Y)
			}
			d.Place(id, c.X, c.Y)
		}
		if c.Fixed {
			if !c.Placed {
				return nil, nil, badf("design: cells[%d] is fixed but not placed", i)
			}
			d.Cell(id).Fixed = true
		}
	}
	nl := netlist.New()
	for i, n := range dj.Nets {
		pins := make([]netlist.Pin, 0, len(n.Pins))
		for j, p := range n.Pins {
			cid := design.NoCell
			if p.Cell >= 0 {
				if p.Cell >= len(d.Cells) {
					return nil, nil, badf("design: nets[%d].pins[%d] references cell %d of %d", i, j, p.Cell, len(d.Cells))
				}
				cid = design.CellID(p.Cell)
			}
			if !finite(p.DX) || !finite(p.DY) {
				return nil, nil, badf("design: nets[%d].pins[%d] has bogus offset", i, j)
			}
			pins = append(pins, netlist.Pin{Cell: cid, DX: p.DX, DY: p.DY})
		}
		nl.AddNet(n.Name, pins...)
	}
	nl.BuildIndex(len(d.Cells))
	return d, nl, nil
}

func readBookshelf(bj *BookshelfJSON) (*design.Design, *netlist.Netlist, error) {
	if bj.Aux == "" {
		return nil, nil, badf("bookshelf: aux file name is required")
	}
	fs := bookshelf.NewMemFS()
	for name, content := range bj.Files {
		w, err := fs.Create(name)
		if err != nil {
			return nil, nil, badf("bookshelf: %v", err)
		}
		if _, err := io.WriteString(w, content); err != nil {
			return nil, nil, badf("bookshelf: %v", err)
		}
		w.Close()
	}
	d, nl, err := bookshelf.Read(fs, bj.Aux)
	if err != nil {
		return nil, nil, badf("bookshelf: %v", err)
	}
	return d, nl, nil
}

// validateDesign applies the structural invariants the engine's segment
// grid assumes (segment.Build indexes rows by their Y field) plus the
// service's resource limits, regardless of which decoder produced the
// design. Text and Bookshelf parsers accept some shapes the engine
// would panic on, and some it would mis-report (a non-finite pin offset
// makes HPWL NaN or infinite; a fixed cell with no position drops out of
// the report; a pin on a missing cell makes the placement unreadable);
// this is the single gate in front of NewLegalizer.
func validateDesign(d *design.Design, nl *netlist.Netlist, lim Limits) error {
	if len(d.Rows) == 0 {
		return badf("design: at least one row is required")
	}
	if len(d.Rows) > lim.MaxRows {
		return badf("design: %d rows exceeds the limit of %d", len(d.Rows), lim.MaxRows)
	}
	if len(d.Cells) > lim.MaxCells {
		return badf("design: %d cells exceeds the limit of %d", len(d.Cells), lim.MaxCells)
	}
	if len(nl.Nets) > lim.MaxNets {
		return badf("design: %d nets exceeds the limit of %d", len(nl.Nets), lim.MaxNets)
	}
	seen := make([]bool, len(d.Rows))
	for i := range d.Rows {
		y := d.Rows[i].Y
		if y < 0 || y >= len(d.Rows) || seen[y] {
			return badf("design: row %d has invalid or duplicate index y=%d", i, y)
		}
		seen[y] = true
		if sp := d.Rows[i].Span; sp.Lo >= sp.Hi {
			return badf("design: row %d has empty span [%d, %d)", i, sp.Lo, sp.Hi)
		}
	}
	for i := range d.Lib {
		m := &d.Lib[i]
		if m.Width < 1 || m.Height < 1 || m.Height > len(d.Rows) {
			return badf("design: master %q has bogus size %dx%d", m.Name, m.Width, m.Height)
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Master < 0 || c.Master >= len(d.Lib) {
			return badf("design: cell %q references master %d of %d", c.Name, c.Master, len(d.Lib))
		}
		if !finite(c.GX) || !finite(c.GY) {
			return badf("design: cell %q has non-finite input position", c.Name)
		}
		if c.Placed && (c.Y < 0 || c.Y >= len(d.Rows)) {
			return badf("design: cell %q placed on row %d of %d", c.Name, c.Y, len(d.Rows))
		}
		if c.Fixed && !c.Placed {
			return badf("design: cell %q is fixed but not placed", c.Name)
		}
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		for j, pin := range n.Pins {
			if !finite(pin.DX) || !finite(pin.DY) {
				return badf("design: net %q pin %d has non-finite offset", n.Name, j)
			}
		}
	}
	// A text design's second header drops the cells read before it but
	// not the nets, which may then name cells the design lacks.
	if err := nl.Validate(d); err != nil {
		return badf("design: %v", err)
	}
	return nil
}

func applyConfig(base core.Config, cj *ConfigJSON, lim Limits) (core.Config, error) {
	cfg := base
	if cj == nil {
		return cfg, nil
	}
	setInt := func(dst *int, v *int, name string, lo, hi int) error {
		if v == nil {
			return nil
		}
		if *v < lo || *v > hi {
			return badf("config: %s=%d out of range [%d, %d]", name, *v, lo, hi)
		}
		*dst = *v
		return nil
	}
	if err := setInt(&cfg.Rx, cj.Rx, "rx", 1, 100_000); err != nil {
		return cfg, err
	}
	if err := setInt(&cfg.Ry, cj.Ry, "ry", 1, 10_000); err != nil {
		return cfg, err
	}
	if err := setInt(&cfg.MaxRounds, cj.MaxRounds, "max_rounds", 1, 100_000); err != nil {
		return cfg, err
	}
	if err := setInt(&cfg.AuditEvery, cj.AuditEvery, "audit_every", 0, 1_000_000); err != nil {
		return cfg, err
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
	if cj.ExhaustiveSearch != nil {
		cfg.ExhaustiveSearch = *cj.ExhaustiveSearch
	}
	if cj.Constraints != nil {
		set, err := constraint.Parse(*cj.Constraints)
		if err != nil {
			return cfg, badf("config: constraints: %v", err)
		}
		cfg.Constraints = set
	}
	if cj.CellTimeoutMS != nil {
		// Compared in milliseconds: converting first can overflow.
		ms := *cj.CellTimeoutMS
		if ms < 0 || ms > lim.MaxDeadline.Milliseconds() {
			return cfg, badf("config: cell_timeout_ms=%d out of range", ms)
		}
		cfg.CellTimeout = time.Duration(ms) * time.Millisecond
	}
	return cfg, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
