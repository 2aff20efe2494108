// Package obs is the observability layer shared by the simulator and
// the dx100d service: the metric value types (counters, histograms)
// with a snapshot and its Prometheus/JSON encoders, and an event-trace
// sink (ring-buffered, optionally spilled to JSON Lines or Chrome
// trace_event format) that components emit structured events into.
//
// The metric types are unsynchronized. Each owner keeps its own table
// and builds a Snapshot from it: sim.Stats after a run, from the
// simulating goroutine; dx100d at scrape time, from its own
// synchronized fields.
//
// The trace sink's cardinal invariant is that it is zero-cost when
// absent: every hook point holds a possibly-nil *Sink, and both the
// nil-pointer guard and the nil-receiver Emit short-circuit before any
// event is materialized. DESIGN.md documents the contract; the engine
// hot-loop allocation test pins it.
package obs

import "math"

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

// Histogram is a fixed-bucket distribution for single-goroutine use.
// Bounds are inclusive upper bounds; observations above the last bound
// land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    float64
	n      uint64
}

// NewHistogram returns an empty histogram over a copy of bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
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

// Reset clears every observation; the bounds stay.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.sum, h.n = 0, 0
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
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

// Snapshot is a frozen, encodable set of named metrics: counters,
// gauges and histograms.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}
