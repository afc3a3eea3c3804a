package obs

import (
	"encoding/json"
	"io"
	"os"
)

// Flush drains the observer's trace sink, if any, and returns the sink's
// first write or flush error. Call it when the run ends, before closing
// the destination file.
func (o *Observer) Flush() error {
	if o.enc == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.flushLocked()
}

// flushLocked drains the buffer unless the sink already failed, and
// returns the sticky error. Caller holds o.mu.
func (o *Observer) flushLocked() error {
	if o.err == nil {
		o.err = o.bw.Flush()
	}
	return o.err
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
	if o == nil || o.enc == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.flushLocked() // the sink's first write or flush error wins
	if o.file != nil {
		if cerr := o.file.Close(); o.err == nil {
			o.err = cerr
		}
		o.file = nil
	}
	return o.err
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
