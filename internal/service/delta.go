package service

// Framed delta wire format for incremental (ECO) sessions
// (docs/SERVICE.md §8). A delta stream is a sequence of frames, each a
// 4-byte big-endian length prefix followed by exactly that many bytes of
// JSON — one DeltaBatchJSON per frame. The server reads, applies and
// answers one frame at a time with a single reused buffer, so TCP flow
// control is the only backpressure a client ever sees and a long stream
// costs O(max frame) memory, not O(stream).
//
// The decoder has the same robustness contract as the job-submission
// decoder (decode.go): arbitrary bytes produce a stable bad_request
// error, never a panic (FuzzDecodeDelta holds it).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
)

// frameHeaderLen is the byte length of a frame's big-endian size prefix.
const frameHeaderLen = 4

// DeltaJSON is one cell-level edit on the wire. Op selects which other
// fields are meaningful; setting a field the op does not use is a
// bad_request (the strictness keeps client bugs loud).
//
//	{"op":"move","cell":3,"x":41.5,"y":2}
//	{"op":"resize","cell":7,"w":4}
//	{"op":"insert","master":1,"x":10,"y":3,"name":"eco_buf"}
//	{"op":"delete","cell":9}
type DeltaJSON struct {
	Op     string   `json:"op"`
	Cell   *int     `json:"cell,omitempty"`
	X      *float64 `json:"x,omitempty"`
	Y      *float64 `json:"y,omitempty"`
	W      *int     `json:"w,omitempty"`
	Name   string   `json:"name,omitempty"`
	Master *int     `json:"master,omitempty"`
}

// DeltaBatchJSON is the payload of one request frame: the deltas applied
// as a single atomic batch (all land or none do).
type DeltaBatchJSON struct {
	Deltas []DeltaJSON `json:"deltas"`
}

// DeltaResultJSON is the realized outcome of one delta.
type DeltaResultJSON struct {
	Op     string `json:"op"`
	Cell   int    `json:"cell"`
	X      int    `json:"x"`
	Y      int    `json:"y"`
	Placed bool   `json:"placed"`
	// Retries counts extra jittered placement attempts beyond the first.
	Retries int `json:"retries,omitempty"`
}

// DeltaFrameJSON is the payload of one response frame: the committed
// batch's report, or an error (in which case the batch rolled back and
// the session still holds the previous legal placement).
type DeltaFrameJSON struct {
	Applied    int               `json:"applied"`
	Results    []DeltaResultJSON `json:"results,omitempty"`
	DirtyCells int               `json:"dirty_cells,omitempty"`
	Retries    int               `json:"retries,omitempty"`
	// PlacementChecksum is the post-batch checksum (16 hex digits), the
	// client's handle for checkpoint comparisons.
	PlacementChecksum string     `json:"placement_checksum,omitempty"`
	Error             *ErrorJSON `json:"error,omitempty"`
}

// encodeDeltaFrame converts a committed batch report to its wire form.
func encodeDeltaFrame(rep *core.DeltaReport, checksum uint64) *DeltaFrameJSON {
	fr := &DeltaFrameJSON{
		Applied:           len(rep.Results),
		DirtyCells:        rep.DirtyCells,
		Retries:           rep.Retries,
		PlacementChecksum: fmt.Sprintf("%016x", checksum),
	}
	for _, res := range rep.Results {
		fr.Results = append(fr.Results, DeltaResultJSON{
			Op:      res.Op.String(),
			Cell:    int(res.Cell),
			X:       res.X,
			Y:       res.Y,
			Placed:  res.Placed,
			Retries: res.Retries,
		})
	}
	return fr
}

// readFrame reads one length-prefixed frame, reusing (and growing) buf
// across calls. A clean end of stream returns io.EOF; a truncated header
// or body, a zero length, or a length beyond maxFrame returns a
// bad_request error.
func readFrame(r io.Reader, buf []byte, maxFrame int) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return buf, io.EOF // clean boundary: no more frames
		}
		return buf, badf("truncated frame header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return buf, badf("empty frame")
	}
	if int64(n) > int64(maxFrame) {
		return buf, badf("frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if got, err := io.ReadFull(r, buf); err != nil {
		return buf, badf("truncated frame body (%d of %d bytes): %v", got, n, err)
	}
	return buf, nil
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// DecodeDeltaBatch parses and validates one frame payload into engine
// deltas. Structural bounds only — Limits.MaxDeltasPerBatch, field
// presence and ranges; whether a cell id exists or a width fits is the
// engine's call (core.Session.ApplyDelta), reported per batch. Like
// DecodeSubmit it never panics on hostile input.
func DecodeDeltaBatch(payload []byte, lim Limits) (ds []core.Delta, err error) {
	lim.defaults()
	defer func() {
		if rec := recover(); rec != nil {
			ds, err = nil, badf("invalid delta batch: %v", rec)
		}
	}()

	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var batch DeltaBatchJSON
	if derr := dec.Decode(&batch); derr != nil {
		return nil, badf("delta batch: %v", derr)
	}
	if derr := dec.Decode(new(json.RawMessage)); derr != io.EOF {
		if derr == nil {
			return nil, badf("frame holds more than one JSON document")
		}
		return nil, badf("delta batch: %v", derr)
	}
	if len(batch.Deltas) == 0 {
		return nil, badf("delta batch is empty")
	}
	if len(batch.Deltas) > lim.MaxDeltasPerBatch {
		return nil, badf("batch of %d deltas exceeds the limit of %d", len(batch.Deltas), lim.MaxDeltasPerBatch)
	}

	ds = make([]core.Delta, 0, len(batch.Deltas))
	for i, dj := range batch.Deltas {
		d, derr := decodeDelta(&dj)
		if derr != nil {
			return nil, badf("delta %d: %v", i, derr)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// decodeDelta validates one wire delta: required fields present, stray
// fields absent, numbers finite and in range.
func decodeDelta(dj *DeltaJSON) (core.Delta, error) {
	var d core.Delta
	need := func(ok bool, field string) error {
		if !ok {
			return fmt.Errorf("%s requires %q", dj.Op, field)
		}
		return nil
	}
	stray := func(set bool, field string) error {
		if set {
			return fmt.Errorf("%s does not take %q", dj.Op, field)
		}
		return nil
	}
	coord := func(p *float64, field string) (float64, error) {
		if math.IsNaN(*p) || math.IsInf(*p, 0) || math.Abs(*p) > 1e12 {
			return 0, fmt.Errorf("%q = %v is not a usable coordinate", field, *p)
		}
		return *p, nil
	}
	firstErr := func(errs ...error) error {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}

	switch dj.Op {
	case "move":
		d.Op = core.DeltaMove
		if err := firstErr(
			need(dj.Cell != nil, "cell"), need(dj.X != nil, "x"), need(dj.Y != nil, "y"),
			stray(dj.W != nil, "w"), stray(dj.Master != nil, "master"), stray(dj.Name != "", "name"),
		); err != nil {
			return d, err
		}
	case "resize":
		d.Op = core.DeltaResize
		if err := firstErr(
			need(dj.Cell != nil, "cell"), need(dj.W != nil, "w"),
			stray(dj.X != nil, "x"), stray(dj.Y != nil, "y"),
			stray(dj.Master != nil, "master"), stray(dj.Name != "", "name"),
		); err != nil {
			return d, err
		}
		if *dj.W < 1 {
			return d, fmt.Errorf("%q = %d must be >= 1", "w", *dj.W)
		}
		d.NewW = *dj.W
	case "insert":
		d.Op = core.DeltaInsert
		if err := firstErr(
			need(dj.Master != nil, "master"), need(dj.X != nil, "x"), need(dj.Y != nil, "y"),
			stray(dj.Cell != nil, "cell"), stray(dj.W != nil, "w"),
		); err != nil {
			return d, err
		}
		if *dj.Master < 0 {
			return d, fmt.Errorf("%q = %d must be >= 0", "master", *dj.Master)
		}
		d.Master = *dj.Master
		d.Name = dj.Name
	case "delete":
		d.Op = core.DeltaDelete
		if err := firstErr(
			need(dj.Cell != nil, "cell"),
			stray(dj.X != nil, "x"), stray(dj.Y != nil, "y"), stray(dj.W != nil, "w"),
			stray(dj.Master != nil, "master"), stray(dj.Name != "", "name"),
		); err != nil {
			return d, err
		}
	case "":
		return d, fmt.Errorf("missing %q", "op")
	default:
		return d, fmt.Errorf("unknown op %q", dj.Op)
	}

	if dj.Cell != nil {
		if *dj.Cell < 0 {
			return d, fmt.Errorf("%q = %d must be >= 0", "cell", *dj.Cell)
		}
		d.Cell = design.CellID(*dj.Cell)
	}
	if dj.X != nil {
		x, err := coord(dj.X, "x")
		if err != nil {
			return d, err
		}
		d.TX = x
	}
	if dj.Y != nil {
		y, err := coord(dj.Y, "y")
		if err != nil {
			return d, err
		}
		d.TY = y
	}
	return d, nil
}
