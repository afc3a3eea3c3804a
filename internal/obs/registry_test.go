package obs

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestRegistryRace hammers every metric kind and the trace sink from
// GOMAXPROCS goroutines. Run under -race (CI does) this is the data-race
// gate for the whole layer; the totals assert that no increment and no
// event was lost.
func TestRegistryRace(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{TraceOut: &buf})
	r := o.Registry()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 2000

	c := r.Counter("race_counter_total", "h")
	g := r.Gauge("race_gauge", "h")
	h := r.Histogram("race_hist", "h", []float64{1, 2, 4})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i % 5))
				o.RecordCell(CellEvent{Cell: w, Round: i})
				if i%256 == 0 {
					// Concurrent readers must see a consistent view.
					_ = r.Snapshot()
					_ = o.Flush()
				}
			}
		}(w)
	}
	wg.Wait()

	want := int64(workers * perWorker)
	if got := c.Value(); got != want {
		t.Errorf("counter: got %d, want %d", got, want)
	}
	if got := h.Count(); got != want {
		t.Errorf("histogram count: got %d, want %d", got, want)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(evs)) != want {
		t.Errorf("trace: got %d events, want %d", len(evs), want)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("trace line %d: seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// TestHistogramBuckets pins bucket assignment (le semantics: a sample
// lands in the first bucket whose upper bound is ≥ the value) and the
// CAS-maintained sum.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hist", "h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 1} // (..1], (1..10], (10..100], (100..)
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket %d: got %d, want %d", i, got, w)
		}
	}
	if got := h.Sum(); got != 1066.5 {
		t.Errorf("sum: got %v, want 1066.5", got)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count: got %d, want 6", got)
	}
}

// TestRegistryGetOrCreate checks that metric creation is idempotent and
// returns the same instance for the same name.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a_total", "first") != r.Counter("a_total", "second") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g", "h") != r.Gauge("g", "h") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h", "h", []float64{1}) != r.Histogram("h", "h", nil) {
		t.Error("Histogram not idempotent")
	}
}

// TestWithLabels pins sorted label rendering.
func TestWithLabels(t *testing.T) {
	got := WithLabels("m_seconds", "phase", "extract", "a", "b")
	want := `m_seconds{a="b",phase="extract"}`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if WithLabels("bare") != "bare" {
		t.Error("no-label name must pass through")
	}
}
