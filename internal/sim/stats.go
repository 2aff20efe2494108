package sim

import (
	"encoding/json"
	"fmt"
	"math"
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
//
// Counter is an alias for obs.Counter: the simulator's statistics live
// in an obs.Registry, so the same run registry can also carry
// histograms and be encoded through the obs snapshot/Prometheus/JSON
// paths without copying.
type Counter = obs.Counter

// Stats is a flat registry of named counters shared by the simulator
// components, backed by an obs.Registry. Components add to counters
// through *Counter handles; the experiment harness snapshots and
// formats them. Histograms registered on the same registry (DRAM
// occupancy, queue depths) ride along in obs snapshots but are
// deliberately excluded from Stats' JSON form, which stays a flat
// counters-only object so experiment Results remain byte-stable.
type Stats struct {
	reg *obs.Registry
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{reg: obs.NewRegistry()}
}

// Registry exposes the backing obs.Registry so harnesses can register
// histograms or encode the full snapshot (Prometheus text, JSON).
func (s *Stats) Registry() *obs.Registry {
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	return s.reg
}

// Counter returns the handle for name, creating it (untouched) on
// first use; it is the only way to write a statistic. Handles remain
// valid across Reset.
func (s *Stats) Counter(name string) *Counter {
	return s.Registry().Counter(name)
}

// Reset zeroes every counter and clears every histogram (components
// keep their registry pointer and their handles, so measurement can
// start after a warm-up phase). Reset counters drop out of
// Names/String until touched again.
func (s *Stats) Reset() { s.Registry().ResetCounters() }

// Get returns counter name (zero if absent).
func (s *Stats) Get(name string) float64 {
	return s.Registry().CounterValue(name)
}

// Names returns all touched counter names in sorted order.
func (s *Stats) Names() []string {
	return s.Registry().CounterNames()
}

// String renders the registry one counter per line, sorted by name.
func (s *Stats) String() string {
	reg := s.Registry()
	var b strings.Builder
	for _, n := range reg.CounterNames() {
		fmt.Fprintf(&b, "%-40s %v\n", n, reg.CounterValue(n))
	}
	return b.String()
}

// MarshalJSON encodes the registry as a flat {name: value} object over
// the touched counters. encoding/json writes map keys in sorted order,
// so the encoding is canonical: two registries with the same touched
// counters and values marshal to identical bytes. Histograms are not
// part of this form — it is the stable Result encoding.
func (s *Stats) MarshalJSON() ([]byte, error) {
	reg := s.Registry()
	names := reg.CounterNames()
	m := make(map[string]float64, len(names))
	for _, n := range names {
		m[n] = reg.CounterValue(n)
	}
	return json.Marshal(m)
}

// UnmarshalJSON rebuilds the registry from the flat object form. Every
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
