// Package telemetry is the harness's observability layer: the paper's
// Rule 9 demands that results ship with enough environment and process
// detail to be interpretable, and Hunold & Carpen-Amarie show that
// undocumented harness behaviour is a leading cause of irreproducible
// MPI results. This package makes the harness itself observable — a
// lock-cheap metrics registry (counters, gauges, and streaming
// histograms summarized by the repo's own stats machinery), hierarchical
// spans emitted as an out-of-band binary trace with monotonic timestamps
// from internal/timer, and an optional HTTP endpoint serving /metrics,
// /trace, and net/http/pprof.
//
// The hard invariant, enforced by test: telemetry never changes report
// bytes, campaign identity, or RNG positions. Instrumentation only reads
// wall-clock time and writes to its own counters and sinks; it never
// touches a seeded random stream or a report writer, so every
// bit-identity guarantee of the measurement layer holds with telemetry
// on or off.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug but not checked — a
// counter is a convention, not a type system).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (e.g. worker-pool occupancy). All
// methods are safe for concurrent use and lock-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta and returns the new value — the return
// lets an instrumentation site record occupancy at the instant it
// claimed a slot without a second read racing other claimants.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a streaming distribution summary: one stats.LogHistogram
// behind a short mutex. Every statistic of a snapshot covers the full
// stream: quantiles carry ≤1/64 relative error, while count, mean,
// min and max are exact. Observe never allocates.
type Histogram struct {
	mu   sync.Mutex
	hist stats.LogHistogram
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.hist.Record(x)
	h.mu.Unlock()
}

// Reset empties the histogram, so the observations that follow are read
// without those of earlier runs in the same process.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.hist.Reset()
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time summary of every observation a
// histogram has made, in the unit the values were observed in.
type HistogramSnapshot struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram. NaNs (empty streams) are reported
// as zero so the snapshot always serializes to JSON.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count: int(h.hist.Count()),
		Mean:  nz(h.hist.Mean()),
		Min:   nz(h.hist.Min()),
		Max:   nz(h.hist.Max()),
		P50:   nz(h.hist.Quantile(0.5)),
		P90:   nz(h.hist.Quantile(0.9)),
		P99:   nz(h.hist.Quantile(0.99)),
	}
}

// nz maps NaN to 0 for JSON encoding (encoding/json refuses NaN).
func nz(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// Registry is a named collection of metrics. Lookup is a read-locked map
// access; instrumentation sites resolve their metrics once (package-level
// vars) so the steady-state cost of an event is a single atomic.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// std is the process-wide default registry the harness instruments.
var std = NewRegistry()

// Default returns the process-wide registry served by /metrics.
func Default() *Registry { return std }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric in the registry. Maps serialize with
// sorted keys under encoding/json, giving /metrics a stable layout.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented, key-sorted JSON —
// the expvar-style payload /metrics serves.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
