// Package telemetry is the zero-dependency observability core of the
// simulation stack: counters, gauges and fixed-bucket histograms registered
// per subsystem in a Registry, plus a bounded subscriber-based event Stream
// (stream.go) and an HTTP live-stats handler over both (http.go).
//
// The package is built for instrumenting deterministic discrete-event
// loops, which imposes two contracts:
//
//   - Timestamps come from the simulated clock. Nothing here reads the wall
//     clock; every Event carries the simulated time its producer stamped it
//     with, so telemetry-enabled runs replay bit-identically. (The one
//     place wall time legitimately appears — slaving a replay to real time
//     at the serving boundary — lives in the caller, behind an annotated
//     //lint:allow.)
//   - Instrumentation must never perturb the hot loop. Every metric method
//     is safe on a nil receiver (a disabled sink costs one pointer check),
//     counters and gauges are single atomics, and Stream.Publish never
//     blocks: a subscriber whose buffer is full loses the event and its
//     drop counter increments instead.
//
// Metric names are flat dotted strings ("cluster.arrivals",
// "repcache.hits"); Snapshot serializes every registered metric to JSON
// with deterministically ordered keys.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count. The zero value is usable; all methods
// are safe on a nil receiver (no-ops), so disabled instrumentation costs a
// pointer check.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be negative only for correction at finalization; live
// counters should stay monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric (queue depth, simulated clock, busy
// seconds). The zero value is usable; all methods are nil-safe no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds delta to the stored value.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper bounds in ascending order; observations above the last bound land
// in an implicit overflow bucket. The zero value is not usable — construct
// through Registry.Histogram — but all methods are nil-safe no-ops.
type Histogram struct {
	bounds []float64 // immutable after construction

	mu     sync.Mutex
	counts []int64 // guarded by mu; len(bounds)+1, last is overflow
	sum    float64 // guarded by mu
	n      int64   // guarded by mu
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: h.bounds,
		Counts: append([]int64(nil), h.counts...),
		Count:  h.n,
		Sum:    h.sum,
	}
}

// Registry holds one subsystem family of named metrics. Metrics are
// get-or-create: instrumented code asks for a name once and holds the
// pointer. A nil *Registry hands out nil metrics, so an entirely disabled
// telemetry configuration needs no branches at the instrumentation sites.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (bounds must be ascending). Later calls return the
// existing histogram regardless of bounds. Returns nil on a nil registry;
// panics on unsorted bounds — a programmer error at an instrumentation
// site, not a data condition.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending: %v", name, bounds))
			}
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state at snapshot time. Counts has
// one entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every registered metric. Maps JSON-
// marshal with sorted keys, so the encoding is deterministic for a given
// metric state.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every metric. A nil registry yields
// the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}
