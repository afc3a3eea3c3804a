package obs

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRegistryRace hammers every metric kind and the event ring from
// GOMAXPROCS goroutines. Run under -race (CI does) this is the data-race
// gate for the whole layer; the totals assert that no increment was lost.
func TestRegistryRace(t *testing.T) {
	o := New(Options{RingSize: 128})
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
					_ = o.Ring().Events()
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
	if got := o.Ring().Total(); got != uint64(want) {
		t.Errorf("ring total: got %d, want %d", got, want)
	}
	if got := o.Ring().Len(); got != 128 {
		t.Errorf("ring len: got %d, want capacity 128", got)
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

// TestRingEviction checks ordering and eviction of the bounded ring.
func TestRingEviction(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 6; i++ {
		r.Push(CellEvent{Cell: i})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len=%d, want 4", len(evs))
	}
	for i, want := range []int{3, 4, 5, 6} {
		if evs[i].Cell != want {
			t.Errorf("events[%d].Cell=%d, want %d", i, evs[i].Cell, want)
		}
	}
	if r.Total() != 6 {
		t.Errorf("total=%d, want 6", r.Total())
	}
	var visited []int
	r.Do(func(ev *CellEvent) bool {
		visited = append(visited, ev.Cell)
		return ev.Cell < 5
	})
	if fmt.Sprint(visited) != "[3 4 5]" {
		t.Errorf("Do early-stop visited %v, want [3 4 5]", visited)
	}
}

// TestObserverSequencing checks RecordCell stamps dense 1-based sequence
// numbers in record order.
func TestObserverSequencing(t *testing.T) {
	o := New(Options{RingSize: 8})
	for i := 0; i < 3; i++ {
		o.RecordCell(CellEvent{Cell: i, Dur: time.Millisecond})
	}
	evs := o.Ring().Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq=%d, want %d", i, ev.Seq, i+1)
		}
	}
}
