// Package obs is the observability layer shared by the simulator and
// the dx100d service: a typed, allocation-conscious metrics registry
// (counters, gauges, histograms) with snapshot and Prometheus/JSON
// encoders, and an event-trace sink (ring-buffered, optionally spilled
// to JSON Lines or Chrome trace_event format) that components emit
// structured events into.
//
// Two concurrency regimes coexist deliberately:
//
//   - Counter and Histogram are unsynchronized. They are built for the
//     simulator's single-goroutine hot loop, where an atomic add per
//     DRAM command would be pure overhead; snapshots are taken after
//     the run (or from the same goroutine).
//   - SyncCounter, Gauge, GaugeFunc, CounterFunc and SyncHistogram are
//     safe for concurrent use. They are built for servers, where
//     request handlers bump them while /metrics scrapes concurrently.
//
// The trace sink's cardinal invariant is that it is zero-cost when
// absent: every hook point holds a possibly-nil *Sink, and both the
// nil-pointer guard and the nil-receiver Emit short-circuit before any
// event is materialized. DESIGN.md documents the contract; the engine
// hot-loop allocation test pins it.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone (by convention) float64 statistic for
// single-goroutine use. Hot paths obtain a *Counter handle once and
// bump it directly — no map lookup, no allocation. A counter is
// "touched" once any Add/Inc/Set hits it; snapshots list only touched
// counters, so handle-based and name-based usage render identically,
// including across Reset (which un-touches the counter while keeping
// handles valid).
type Counter struct {
	v       float64
	touched bool
}

// Add increments the counter by v.
func (c *Counter) Add(v float64) {
	c.v += v
	c.touched = true
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter.
func (c *Counter) Set(v float64) {
	c.v = v
	c.touched = true
}

// Value returns the current value (zero when untouched).
func (c *Counter) Value() float64 { return c.v }

// Touched reports whether the counter has been written since creation
// or the last Reset.
func (c *Counter) Touched() bool { return c.touched }

// Reset zeroes and un-touches the counter. Handles stay valid.
func (c *Counter) Reset() {
	c.v = 0
	c.touched = false
}

// SyncCounter is an integer counter safe for concurrent use — the
// server-side sibling of Counter.
type SyncCounter struct {
	n atomic.Int64
}

// Inc increments the counter by one.
func (c *SyncCounter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *SyncCounter) Value() int64 { return c.n.Load() }

// Gauge is a settable float64 safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution for single-goroutine use.
// Bounds are inclusive upper bounds; observations above the last bound
// land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    float64
	n      uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations in one step. Components
// that skip provably-idle cycles use it to bulk-account the elided
// per-cycle observations exactly (see sim.CycleSkipper): ObserveN(v, n)
// leaves the histogram bit-identical to n unit Observes while sums stay
// below 2^53.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i] += n
	h.sum += v * float64(n)
	h.n += n
}

// SyncHistogram is a mutex-guarded Histogram for concurrent use (job
// durations on the service, not simulator hot paths).
type SyncHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// Observe records one observation.
func (h *SyncHistogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// snapshot copies the inner histogram under the lock.
func (h *SyncHistogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.snapshot()
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
	return s
}

// ExpBounds returns exponentially spaced bucket bounds 0, 1, 2, 4, ...
// up to and including the first power of two >= max — the shape used
// for queue-occupancy and latency distributions.
func ExpBounds(max int) []float64 {
	bounds := []float64{0}
	for b := 1; ; b *= 2 {
		bounds = append(bounds, float64(b))
		if b >= max {
			return bounds
		}
	}
}

// Registry is a named collection of metrics. Registration is
// map-guarded and may happen from any goroutine; reading plain Counter
// and Histogram values through Snapshot is only safe once their
// writer goroutine has quiesced (the experiment harness snapshots after
// the run). Sync metrics and func-backed metrics are safe to snapshot
// at any time.
type Registry struct {
	mu           sync.Mutex
	counters     map[string]*Counter
	syncCounters map[string]*SyncCounter
	counterFns   map[string]func() float64
	gauges       map[string]*Gauge
	gaugeFns     map[string]func() float64
	hists        map[string]*Histogram
	syncHists    map[string]*SyncHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		syncCounters: make(map[string]*SyncCounter),
		counterFns:   make(map[string]func() float64),
		gauges:       make(map[string]*Gauge),
		gaugeFns:     make(map[string]func() float64),
		hists:        make(map[string]*Histogram),
		syncHists:    make(map[string]*SyncHistogram),
	}
}

// Counter returns the handle for name, creating it (untouched) on
// first use. Handles remain valid across ResetCounters.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// SyncCounter returns the concurrent counter for name, creating it on
// first use.
func (r *Registry) SyncCounter(name string) *SyncCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.syncCounters[name]
	if !ok {
		c = &SyncCounter{}
		r.syncCounters[name] = c
	}
	return c
}

// CounterFunc registers a callback rendered as a counter — for values
// another subsystem already tracks (an atomic the server owns).
func (r *Registry) CounterFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFns[name] = fn
}

// Gauge returns the settable gauge for name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback rendered as a gauge; fn is invoked at
// snapshot time and must be safe to call from the scraping goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the histogram for name, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// SyncHistogram returns the concurrent histogram for name, creating it
// with the given bounds on first use.
func (r *Registry) SyncHistogram(name string, bounds []float64) *SyncHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.syncHists[name]
	if !ok {
		h = &SyncHistogram{h: Histogram{bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}}
		r.syncHists[name] = h
	}
	return h
}

// ResetCounters zeroes and un-touches every plain counter and clears
// every plain histogram (components keep their handles, so measurement
// can restart after a warm-up phase). Sync and func-backed metrics are
// left alone — they belong to long-running services, not runs.
func (r *Registry) ResetCounters() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.sum, h.n = 0, 0
	}
}

// CounterValue returns the plain counter's value, zero if absent.
func (r *Registry) CounterValue(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.v
	}
	return 0
}

// CounterNames returns the touched plain-counter names, sorted.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n, c := range r.counters {
		if c.touched {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is +Inf
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucketed
// distribution, interpolating linearly inside the bucket that contains
// the target rank — the same estimate a Prometheus histogram_quantile
// over these buckets would produce. The +Inf bucket clamps to the last
// finite bound. Returns NaN for an empty histogram or q outside [0,1].
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q < 0 || q > 1 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// Target rank lands in the +Inf bucket: the estimate is
			// clamped to the largest finite bound.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot is a frozen, encodable view of a registry. Counters fold
// plain (touched only), sync and func-backed counters together; Gauges
// fold settable and func-backed gauges.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. Func-backed metrics are evaluated
// inside the call.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Counters:   make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for n, c := range r.counters {
		if c.touched {
			s.Counters[n] = c.v
		}
	}
	for n, c := range r.syncCounters {
		s.Counters[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.snapshot()
	}
	// Func-backed metrics and sync histograms take their own locks;
	// evaluate them outside r.mu so a callback that consults the
	// registry cannot deadlock.
	counterFns := make(map[string]func() float64, len(r.counterFns))
	for n, fn := range r.counterFns {
		counterFns[n] = fn
	}
	gaugeFns := make(map[string]func() float64, len(r.gaugeFns))
	for n, fn := range r.gaugeFns {
		gaugeFns[n] = fn
	}
	syncHists := make(map[string]*SyncHistogram, len(r.syncHists))
	for n, h := range r.syncHists {
		syncHists[n] = h
	}
	r.mu.Unlock()
	for n, fn := range counterFns {
		s.Counters[n] = fn()
	}
	for n, fn := range gaugeFns {
		s.Gauges[n] = fn()
	}
	for n, h := range syncHists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}
