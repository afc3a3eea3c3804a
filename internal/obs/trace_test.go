package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTraceRoundTrip writes events through an Observer's JSONL sink and
// decodes them back with ReadTrace; every field must survive.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{TraceOut: &buf})
	in := []CellEvent{
		{Cell: 3, Round: 1, Outcome: OutcomeDirect, WinW: 30, WinH: 5, Dur: 1500 * time.Nanosecond},
		{Cell: 9, Round: 2, Outcome: OutcomeMLL, Evaluated: 17, Pruned: 4, Disp: 2.5, Dur: time.Millisecond},
		{Cell: 9, Outcome: OutcomeFinal, Disp: 2.5},
	}
	for _, ev := range in {
		o.RecordCell(ev)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Fatalf("trace has %d lines, want %d", got, len(in))
	}

	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i, ev := range out {
		want := in[i]
		want.Seq = uint64(i + 1) // RecordCell stamps the sequence
		if ev != want {
			t.Errorf("event %d: got %+v, want %+v", i, ev, want)
		}
	}
}

// TestTraceReadPartial checks ReadTrace surfaces a decode error on a
// truncated stream but still returns the events before it.
func TestTraceReadPartial(t *testing.T) {
	in := "{\"seq\":1,\"cell\":4}\n{\"seq\":2,\"cell\""
	evs, err := ReadTrace(strings.NewReader(in))
	if err == nil {
		t.Fatal("want error for truncated trace")
	}
	if len(evs) != 1 || evs[0].Cell != 4 {
		t.Errorf("got %+v, want the one complete event", evs)
	}
}

// failWriter rejects every write after the first n calls.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink full")
	}
	f.n--
	return len(p), nil
}

// TestTraceStickyError checks the first sink error is sticky: every Flush
// reports it, and later writes never panic.
func TestTraceStickyError(t *testing.T) {
	o := New(Options{TraceOut: &failWriter{n: 1}})
	for i := 0; i < 2000; i++ { // enough to overflow the 4 KiB bufio buffer
		o.RecordCell(CellEvent{Cell: i})
	}
	for i := 0; i < 2; i++ {
		if err := o.Flush(); err == nil || err.Error() != "sink full" {
			t.Fatalf("Flush #%d = %v, want the sink error", i+1, err)
		}
	}
}

// TestObserverNoTrace checks a sink-less observer's Flush is a no-op and
// its RecordCell returns without taking the lock.
func TestObserverNoTrace(t *testing.T) {
	o := New(Options{})
	done := make(chan struct{})
	o.mu.Lock()
	go func() {
		o.RecordCell(CellEvent{Cell: 1})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RecordCell without a sink waited for the observer's lock")
	}
	o.mu.Unlock()
	if err := o.Flush(); err != nil {
		t.Errorf("Flush = %v, want nil", err)
	}
}

// failCloser is a trace file whose Close fails; it counts the calls.
type failCloser struct {
	bytes.Buffer
	closes int
}

func (f *failCloser) Close() error {
	f.closes++
	return errors.New("close failed")
}

// TestObserverClose checks Close flushes the sink, closes the file Open
// would have created exactly once, and returns the close error on every
// call; no local file can be made to fail Close on demand, so the file
// is a failCloser set where Open sets it.
func TestObserverClose(t *testing.T) {
	f := &failCloser{}
	o := New(Options{TraceOut: f})
	o.file = f
	o.RecordCell(CellEvent{Cell: 1, Outcome: OutcomeDirect})
	for i := 0; i < 2; i++ {
		if err := o.Close(); err == nil || err.Error() != "close failed" {
			t.Fatalf("Close #%d = %v, want the close error", i+1, err)
		}
	}
	if f.closes != 1 {
		t.Errorf("file closed %d times, want 1", f.closes)
	}
	if got := strings.Count(f.String(), "\n"); got != 1 {
		t.Errorf("trace has %d lines after Close, want 1", got)
	}

	// A write error comes first and wins over the close error.
	o = New(Options{TraceOut: &failWriter{}})
	o.file = &failCloser{}
	o.RecordCell(CellEvent{Cell: 1})
	if err := o.Close(); err == nil || err.Error() != "sink full" {
		t.Fatalf("Close = %v, want the write error", err)
	}

	var none *Observer
	if err := none.Close(); err != nil {
		t.Errorf("nil Observer: Close = %v", err)
	}
	if err := New(Options{}).Close(); err != nil {
		t.Errorf("sink-less Observer: Close = %v", err)
	}
}

// TestOpen checks Open's trace file: every event recorded before Close
// is in it, a second Close is a no-op, and a path Open cannot create is
// an error.
func TestOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	o, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	o.RecordCell(CellEvent{Cell: 7, Outcome: OutcomeMLL})
	for i := 0; i < 2; i++ {
		if err := o.Close(); err != nil {
			t.Fatalf("Close #%d = %v", i+1, err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if evs, err := ReadTrace(bytes.NewReader(b)); err != nil || len(evs) != 1 || evs[0].Cell != 7 {
		t.Fatalf("trace file holds %+v (%v), want the one event", evs, err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing", "trace.jsonl")); err == nil {
		t.Error("Open in a missing directory: want an error")
	}
	if o, err := Open(""); err != nil || o.Close() != nil {
		t.Errorf(`Open(""): %v`, err)
	}
}
