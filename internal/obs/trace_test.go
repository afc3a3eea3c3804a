package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestTraceRoundTrip writes events through an Observer's JSONL sink and
// decodes them back with ReadTrace; every field must survive.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{RingSize: 8, TraceOut: &buf})
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

// TestTraceStickyError checks the first sink error is sticky, is reported
// by Err/TraceErr, and never panics later writes.
func TestTraceStickyError(t *testing.T) {
	o := New(Options{RingSize: 4, TraceOut: &failWriter{n: 1}})
	for i := 0; i < 2000; i++ { // enough to overflow the 4 KiB bufio buffer
		o.RecordCell(CellEvent{Cell: i})
	}
	if err := o.Flush(); err == nil {
		t.Fatal("Flush: want sticky error")
	}
	if err := o.TraceErr(); err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("TraceErr = %v, want the sink error", err)
	}
	// The ring keeps working regardless of the dead sink.
	if o.Ring().Total() != 2000 {
		t.Errorf("ring total = %d, want 2000", o.Ring().Total())
	}
}

// TestObserverNoTrace checks a sink-less observer reports no trace error
// and Flush is a no-op.
func TestObserverNoTrace(t *testing.T) {
	o := New(Options{})
	o.RecordCell(CellEvent{Cell: 1})
	if err := o.Flush(); err != nil {
		t.Errorf("Flush = %v, want nil", err)
	}
	if err := o.TraceErr(); err != nil {
		t.Errorf("TraceErr = %v, want nil", err)
	}
	if o.Ring().Cap() != DefaultRingSize {
		t.Errorf("default ring cap = %d, want %d", o.Ring().Cap(), DefaultRingSize)
	}
}
