// Package obs is the legalizer's observability layer: a race-safe,
// allocation-disciplined metrics registry (counters, gauges and
// histograms), a JSONL cell-event trace sink and a Prometheus
// text-format exposition (docs/OBSERVABILITY.md catalogs every metric
// and the trace schema).
//
// The layer is strictly passive: nothing in this package reads or mutates
// design or grid state, and the engine consults it only through nil-checked
// handles, so the disabled configuration costs one pointer compare per
// instrumentation site and placements are byte-identical with it on or off.
//
// Concurrency contract: every exported mutation (Counter.Add, Gauge.Set,
// Histogram.Observe, Observer.RecordCell) is safe from any number of
// goroutines, and so is every read (Value, Snapshot, WritePrometheus).
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Observer bundles one run's observability surface: the metric registry
// and the optional JSONL trace sink. A nil *Observer disables everything
// (the engine nil-checks before every recording call).
type Observer struct {
	reg *Registry

	// enc is set by New and never changes, so RecordCell tests it
	// without the lock; nil means no sink.
	enc *json.Encoder

	mu   sync.Mutex
	bw   *bufio.Writer
	err  error     // the sink's first write, flush or close error; sticky
	file io.Closer // the trace file Open created, until Close closes it
	seq  uint64
}

// Options tunes New. The zero value is usable.
type Options struct {
	// TraceOut, when non-nil, receives every recorded cell event as one
	// JSON line (docs/OBSERVABILITY.md documents the schema). The writer
	// is driven under the observer's lock through a buffer; call Flush or
	// Close when the run ends.
	TraceOut io.Writer
}

// New returns an Observer with a fresh registry and the sink opt names.
func New(opt Options) *Observer {
	o := &Observer{reg: NewRegistry()}
	if opt.TraceOut != nil {
		o.bw = bufio.NewWriter(opt.TraceOut)
		o.enc = json.NewEncoder(o.bw)
	}
	return o
}

// Registry returns the observer's metric registry.
func (o *Observer) Registry() *Registry { return o.reg }

// RecordCell stamps the event with the next sequence number and writes it
// to the trace sink as one JSON line. Without a sink it returns at once:
// no lock, no sequence number. After the sink's first error, later events
// are dropped, so a full disk mid-run never aborts a legalization. Safe
// for concurrent use.
func (o *Observer) RecordCell(ev CellEvent) {
	if o.enc == nil {
		return
	}
	o.mu.Lock()
	o.seq++
	ev.Seq = o.seq
	if o.err == nil {
		o.err = o.enc.Encode(ev) // Encode appends the trailing newline
	}
	o.mu.Unlock()
}

// CellOutcome classifies how one cell attempt ended.
type CellOutcome string

// Outcome values. Failure outcomes mirror the core error taxonomy.
const (
	OutcomeDirect   CellOutcome = "direct" // snapped position was free
	OutcomeMLL      CellOutcome = "mll"    // placed through an MLL realization
	OutcomeFinal    CellOutcome = "final"  // end-of-run placement summary event
	OutcomeNoIP     CellOutcome = "no_insertion_point"
	OutcomeTooWide  CellOutcome = "too_wide"
	OutcomeCanceled CellOutcome = "canceled"
	OutcomeAudit    CellOutcome = "audit_rollback"
	OutcomePanic    CellOutcome = "panicked"
	OutcomeError    CellOutcome = "error" // unclassified failure
)

// CellEvent is one entry of the per-cell trace: a single placement attempt
// (or the end-of-run "final" summary of one placed cell). All fields are
// plain values, so building one allocates nothing.
type CellEvent struct {
	Seq       uint64        `json:"seq"`
	Cell      int           `json:"cell"`
	Round     int           `json:"round"` // Algorithm-1 round (0 for final events)
	Outcome   CellOutcome   `json:"outcome"`
	WinW      int           `json:"win_w"`     // MLL window half-extent Rx in effect
	WinH      int           `json:"win_h"`     // MLL window half-extent Ry in effect
	Evaluated int64         `json:"evaluated"` // insertion points evaluated by the attempt
	Pruned    int64         `json:"pruned"`    // candidates + subtrees + windows pruned
	Disp      float64       `json:"disp"`      // displacement in site widths (placed cells)
	Dur       time.Duration `json:"dur_ns"`    // attempt wall time (one placement step)
}
