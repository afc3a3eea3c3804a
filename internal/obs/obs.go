// Package obs is the legalizer's observability layer: a race-safe,
// allocation-disciplined metrics registry (counters, gauges and
// histograms), a bounded per-cell event ring, a JSONL trace sink and a
// Prometheus text-format exposition (docs/OBSERVABILITY.md catalogs
// every metric and the trace schema).
//
// The layer is strictly passive: nothing in this package reads or mutates
// design or grid state, and the engine consults it only through nil-checked
// handles, so the disabled configuration costs one pointer compare per
// instrumentation site and placements are byte-identical with it on or off.
//
// Concurrency contract: every exported mutation (Counter.Add, Gauge.Set,
// Histogram.Observe, Observer.RecordCell) is safe from any number of
// goroutines, and so is every read (Value, Snapshot, WritePrometheus,
// Events).
package obs

import (
	"io"
	"sync"
	"time"
)

// Observer bundles one run's observability surface: the metric registry,
// the bounded per-cell event ring and the optional JSONL trace sink. A nil
// *Observer disables everything (the engine nil-checks before every
// recording call).
type Observer struct {
	reg  *Registry
	ring *Ring

	mu    sync.Mutex
	trace *TraceWriter
	file  io.Closer // the trace file Open created, until Close closes it
	seq   uint64
}

// Options tunes New. The zero value is usable.
type Options struct {
	// RingSize bounds the per-cell event ring (events beyond it evict the
	// oldest). 0 means DefaultRingSize.
	RingSize int

	// TraceOut, when non-nil, receives every recorded cell event as one
	// JSON line (see TraceWriter for the schema). The writer is driven
	// under the observer's lock; wrap slow destinations in a bufio.Writer
	// and call Flush when the run ends.
	TraceOut io.Writer
}

// DefaultRingSize is the event ring capacity when Options.RingSize is 0.
const DefaultRingSize = 4096

// New returns an Observer with a fresh registry and event ring.
func New(opt Options) *Observer {
	n := opt.RingSize
	if n <= 0 {
		n = DefaultRingSize
	}
	o := &Observer{reg: NewRegistry(), ring: NewRing(n)}
	if opt.TraceOut != nil {
		o.trace = NewTraceWriter(opt.TraceOut)
	}
	return o
}

// Registry returns the observer's metric registry.
func (o *Observer) Registry() *Registry { return o.reg }

// Ring returns the observer's bounded cell-event ring.
func (o *Observer) Ring() *Ring { return o.ring }

// RecordCell stamps the event with the next sequence number, appends it to
// the ring and, when a trace sink is attached, writes it as one JSON line.
// Safe for concurrent use.
func (o *Observer) RecordCell(ev CellEvent) {
	o.mu.Lock()
	o.seq++
	ev.Seq = o.seq
	o.ring.Push(ev)
	if o.trace != nil {
		o.trace.Write(ev)
	}
	o.mu.Unlock()
}

// TraceErr returns the first error the JSONL sink hit, if any (nil when no
// sink is attached).
func (o *Observer) TraceErr() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.trace == nil {
		return nil
	}
	return o.trace.Err()
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
// plain values so events copy into the ring without allocating.
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
