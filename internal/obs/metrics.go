package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a no-op, so handles from a nil Observer cost one
// predictable branch per update.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions (queue depths, memory
// occupancy). A nil *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a concurrent name → metric map. Metric handles are created on
// first use and live for the registry's lifetime, so instrumented code
// resolves its handles once and updates lock-free afterwards. A nil
// *Registry hands out nil (no-op) handles.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the named per-tenant counter family, creating it on
// first use.
func (r *Registry) CounterVec(name string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.counterVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.counterVecs[name]; v == nil {
		v = &CounterVec{}
		r.counterVecs[name] = v
	}
	return v
}

// HistogramVec returns the named per-tenant histogram family, creating it
// on first use.
func (r *Registry) HistogramVec(name string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.histVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.histVecs[name]; v == nil {
		v = &HistogramVec{}
		r.histVecs[name] = v
	}
	return v
}

// Snapshot returns a point-in-time flat view of every metric. Counters and
// gauges map to their value; a histogram named h contributes "h.count",
// "h.sum_ns" and "h.max_ns"; vec children contribute one entry per label,
// keyed name{tenant="x"}. Nil registries snapshot empty.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		out[name] = int64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = int64(h.Count())
		out[name+".sum_ns"] = int64(h.Sum())
		out[name+".max_ns"] = int64(h.Max())
	}
	for name, v := range r.counterVecs {
		for _, label := range v.Labels() {
			out[name+`{tenant="`+label+`"}`] = int64(v.With(label).Value())
		}
	}
	for name, v := range r.histVecs {
		for _, label := range v.Labels() {
			h := v.With(label)
			out[name+`{tenant="`+label+`"}.count`] = int64(h.Count())
			out[name+`{tenant="`+label+`"}.sum_ns`] = int64(h.Sum())
		}
	}
	return out
}
