package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a race-safe metric registry. Metrics are created once
// (get-or-create by name) and then mutated lock-free; the registry lock is
// only taken on creation and on exposition.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// metricMeta is the name/help pair shared by every metric kind. Labels are
// baked into the name at creation time (see WithLabels) so exposition
// needs no label machinery and the hot path never formats strings.
type metricMeta struct {
	name string // full series name, possibly with a {label="v"} suffix
	base string // name without the label suffix (HELP/TYPE key)
	help string
}

// WithLabels renders a label suffix for a metric name with keys in sorted
// order, producing a stable series identity: WithLabels("phase_seconds",
// "phase", "extract") → `phase_seconds{phase="extract"}`. Call it once at
// setup time, never on a hot path.
func WithLabels(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: WithLabels needs key/value pairs")
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	s := name + "{"
	for i, p := range ps {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", p.k, p.v)
	}
	return s + "}"
}

// splitLabels recovers the base metric name from a labeled series name.
func splitLabels(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// Counter is a monotonically increasing int64.
type Counter struct {
	metricMeta
	v atomic.Int64
}

// Add increments the counter by d (d must be ≥ 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns the counter with the given (possibly labeled) name,
// creating it on first use. Help is recorded on creation and ignored after.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{metricMeta: metricMeta{name: name, base: splitLabels(name), help: help}}
		r.counters[name] = c
	}
	return c
}

// Gauge is an instantaneous int64 value.
type Gauge struct {
	metricMeta
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{metricMeta: metricMeta{name: name, base: splitLabels(name), help: help}}
		r.gauges[name] = g
	}
	return g
}

// Histogram is a fixed-bucket cumulative histogram over float64 samples.
// Buckets, the count and the bit-packed sum are all atomics, so Observe is
// lock-free and safe from any goroutine.
type Histogram struct {
	metricMeta
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// DefaultDurationBuckets suit attempt/phase durations in seconds: 1µs to
// ~4s doubling.
var DefaultDurationBuckets = []float64{
	1e-6, 2e-6, 4e-6, 8e-6, 16e-6, 32e-6, 64e-6, 128e-6, 256e-6, 512e-6,
	1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4,
}

// Histogram returns the histogram with the given name, creating it with
// the supplied bucket upper bounds (ascending; nil = DefaultDurationBuckets)
// on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if bounds == nil {
			bounds = DefaultDurationBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
			}
		}
		h = &Histogram{
			metricMeta: metricMeta{name: name, base: splitLabels(name), help: help},
			bounds:     bounds,
			buckets:    make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples observed.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot is a point-in-time copy of every metric's value, for
// tests and debugging.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistSnapshot
}

// HistSnapshot is a histogram's merged state.
type HistSnapshot struct {
	Count int64
	Sum   float64
}

// Snapshot copies the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Hists[n] = HistSnapshot{Count: h.Count(), Sum: h.Sum()}
	}
	return s
}
