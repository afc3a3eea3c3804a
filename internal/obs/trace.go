package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
)

// TraceWriter encodes cell events as JSON Lines: one CellEvent object per
// line, in record order (docs/OBSERVABILITY.md documents the schema). The
// first write error is sticky — later writes are dropped and the error is
// reported by Err, so a full disk mid-run never aborts a legalization.
type TraceWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewTraceWriter wraps w in a buffered JSONL encoder.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	return &TraceWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one event line. Serialized by the owning Observer.
func (t *TraceWriter) Write(ev CellEvent) {
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(ev) // Encode appends the trailing newline
}

// Flush drains the buffer to the underlying writer.
func (t *TraceWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	t.err = t.bw.Flush()
	return t.err
}

// Err returns the sticky first error.
func (t *TraceWriter) Err() error { return t.err }

// Flush drains the observer's trace sink, if any. Call it when the run
// ends, before closing the destination file.
func (o *Observer) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.trace == nil {
		return nil
	}
	return o.trace.Flush()
}

// Open returns a new Observer with default options whose trace sink is
// the file at path, created or truncated; "-" means stdout and "" no
// sink. Close flushes the sink and closes the file.
func Open(path string) (*Observer, error) {
	switch path {
	case "":
		return New(Options{}), nil
	case "-":
		return New(Options{TraceOut: os.Stdout}), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	o := New(Options{TraceOut: f})
	o.file = f
	return o, nil
}

// Close flushes the trace sink, closes the file Open created for it, and
// returns the sink's first write, flush or close error. A second call
// returns the same error; on a nil Observer Close returns nil.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.trace == nil {
		return nil
	}
	err := o.trace.Flush() // the sink's first write or flush error
	if o.file != nil {
		if cerr := o.file.Close(); err == nil {
			err = cerr
		}
		o.file = nil
		o.trace.err = err
	}
	return err
}

// ReadTrace decodes a JSONL trace stream back into events, for tests and
// offline analysis tools.
func ReadTrace(r io.Reader) ([]CellEvent, error) {
	dec := json.NewDecoder(r)
	var out []CellEvent
	for dec.More() {
		var ev CellEvent
		if err := dec.Decode(&ev); err != nil {
			return out, err
		}
		out = append(out, ev)
	}
	return out, nil
}
