package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"dx100/internal/obs"
)

// Counter is one named statistic. A component obtains each of its
// counters once, from Stats.Counter, and bumps it directly: no map
// lookup, no string concatenation, no allocation. A counter is
// "touched" once any Add/Inc/Set hits it; Names and String list only
// touched counters, so a handle taken at construction renders nothing
// until it counts (Reset un-touches every counter while keeping
// handles valid).
type Counter = obs.Counter

// Stats is one run's table of named counters and histograms, shared by
// the simulator components. Components add to counters through
// *Counter handles; the experiment harness reads and formats them after
// the run, from the simulating goroutine, so the table takes no lock.
// Histograms (DRAM request-buffer occupancy) appear in Snapshot but not
// in Stats' JSON form, which stays a flat counters-only object so
// experiment Results remain byte-stable. The zero value is ready to use.
type Stats struct {
	counters map[string]*Counter
	hists    map[string]*obs.Histogram
}

// NewStats returns an empty table.
func NewStats() *Stats { return &Stats{} }

// Counter returns the handle for name, creating it (untouched) on
// first use; it is the only way to write a statistic. Handles remain
// valid across Reset.
func (s *Stats) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		if s.counters == nil {
			s.counters = make(map[string]*Counter)
		}
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Histogram returns the histogram for name, creating it with the given
// bounds on first use (later calls ignore bounds).
func (s *Stats) Histogram(name string, bounds []float64) *obs.Histogram {
	h, ok := s.hists[name]
	if !ok {
		if s.hists == nil {
			s.hists = make(map[string]*obs.Histogram)
		}
		h = obs.NewHistogram(bounds)
		s.hists[name] = h
	}
	return h
}

// Reset zeroes every counter and clears every histogram (components
// keep their handles, so measurement can start after a warm-up phase).
// Reset counters drop out of Names/String until touched again.
func (s *Stats) Reset() {
	for _, c := range s.counters {
		c.Reset()
	}
	for _, h := range s.hists {
		h.Reset()
	}
}

// Get returns counter name (zero if absent).
func (s *Stats) Get(name string) float64 {
	if c, ok := s.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// Names returns all touched counter names in sorted order.
func (s *Stats) Names() []string {
	names := make([]string, 0, len(s.counters))
	for n, c := range s.counters {
		if c.Touched() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// touched maps every touched counter to its value.
func (s *Stats) touched() map[string]float64 {
	m := make(map[string]float64, len(s.counters))
	for n, c := range s.counters {
		if c.Touched() {
			m[n] = c.Value()
		}
	}
	return m
}

// Snapshot freezes the touched counters and every histogram, for the
// Prometheus and JSON encoders of obs.
func (s *Stats) Snapshot() obs.Snapshot {
	snap := obs.Snapshot{
		Counters:   s.touched(),
		Gauges:     map[string]float64{},
		Histograms: make(map[string]obs.HistogramSnapshot, len(s.hists)),
	}
	for n, h := range s.hists {
		snap.Histograms[n] = h.Snapshot()
	}
	return snap
}

// String renders the table one counter per line, sorted by name.
func (s *Stats) String() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%-40s %v\n", n, s.Get(n))
	}
	return b.String()
}

// MarshalJSON encodes the table as a flat {name: value} object over
// the touched counters. encoding/json writes map keys in sorted order,
// so the encoding is canonical: two tables with the same touched
// counters and values marshal to identical bytes. Histograms are not
// part of this form — it is the stable Result encoding.
func (s *Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.touched())
}

// UnmarshalJSON rebuilds the table from the flat object form. Every
// decoded counter is marked touched, so a marshal → unmarshal → marshal
// round trip is byte-identical.
func (s *Stats) UnmarshalJSON(b []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for n, v := range m {
		s.Counter(n).Set(v)
	}
	return nil
}

// Geomean returns the geometric mean of xs; it returns 0 for an empty
// slice and ignores non-positive entries (which have no geometric
// mean).
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
