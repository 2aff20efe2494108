package sim

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestStatsCountersMergeByName(t *testing.T) {
	s := NewStats()
	// Two components reporting under the same name accumulate into one
	// counter — the merge semantics the per-channel DRAM stats rely on.
	s.Counter("dram.bytes").Add(64)
	s.Counter("dram.bytes").Add(64)
	s.Counter("dram.bytes").Inc()
	if got := s.Get("dram.bytes"); got != 129 {
		t.Fatalf("merged counter = %v, want 129", got)
	}
	s.Counter("dram.bytes").Set(5)
	if got := s.Get("dram.bytes"); got != 5 {
		t.Fatalf("Set did not overwrite: %v", got)
	}
	if got := s.Get("missing"); got != 0 {
		t.Fatalf("absent counter = %v, want 0", got)
	}
}

func TestStatsResetKeepsRegistrySharedWithComponents(t *testing.T) {
	s := NewStats()
	// A component captures the registry pointer at build time; the
	// warm-LLC phase resets counters between warm-up and measurement
	// and the component's later adds must land in the same registry.
	componentAdd := func(v float64) { s.Counter("llc.hits").Add(v) }
	componentAdd(100)
	if s.Get("llc.hits") != 100 {
		t.Fatal("setup failed")
	}
	s.Reset()
	if got := s.Get("llc.hits"); got != 0 {
		t.Fatalf("counter survives Reset: %v", got)
	}
	if names := s.Names(); len(names) != 0 {
		t.Fatalf("names survive Reset: %v", names)
	}
	componentAdd(7)
	if got := s.Get("llc.hits"); got != 7 {
		t.Fatalf("post-Reset add lost: %v (registry pointer broken)", got)
	}
}

func TestStatsNamesSortedAndStringStable(t *testing.T) {
	s := NewStats()
	s.Counter("zeta").Inc()
	s.Counter("alpha").Inc()
	s.Counter("mid").Inc()
	names := s.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	// String renders in the same sorted order, so two equal registries
	// render identically — the property the determinism goldens use.
	out := s.String()
	if !(strings.Index(out, "alpha") < strings.Index(out, "mid") &&
		strings.Index(out, "mid") < strings.Index(out, "zeta")) {
		t.Fatalf("String() not sorted:\n%s", out)
	}
	s2 := NewStats()
	s2.Counter("mid").Inc()
	s2.Counter("zeta").Inc()
	s2.Counter("alpha").Inc()
	if s2.String() != out {
		t.Fatalf("equal registries render differently:\n%s\nvs\n%s", out, s2.String())
	}
}

func TestGeomeanEdgeCases(t *testing.T) {
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %v, want 0", g)
	}
	if g := Geomean([]float64{0, -1}); g != 0 {
		t.Fatalf("Geomean of non-positives = %v, want 0", g)
	}
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("Geomean(2,8) = %v, want 4", g)
	}
	// Non-positive entries are ignored, not zeroed.
	if g := Geomean([]float64{2, 8, 0}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("Geomean(2,8,0) = %v, want 4", g)
	}
}

// TestStatsTouchedRuleAndHistograms pins what a run's table lists: only
// touched counters (a zero Add touches), one handle per name that
// survives Reset, and histograms in Snapshot but not in the JSON form.
// It starts from the zero value, as a Stats decoded from a Result does.
func TestStatsTouchedRuleAndHistograms(t *testing.T) {
	var s Stats
	c := s.Counter("a")
	if got := s.Names(); len(got) != 0 {
		t.Fatalf("untouched counter listed: %v", got)
	}
	if s.Counter("a") != c {
		t.Fatal("Counter(name) returned a different handle")
	}
	s.Counter("z").Add(0)
	c.Add(2)
	if got := s.Names(); len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Fatalf("names = %v, want [a z]", got)
	}
	h := s.Histogram("occ", []float64{0, 1})
	h.ObserveN(1, 4)
	if s.Histogram("occ", nil) != h {
		t.Fatal("Histogram(name) returned a different histogram")
	}
	snap := s.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters["a"] != 2 || snap.Counters["z"] != 0 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}
	if snap.Gauges == nil || len(snap.Gauges) != 0 {
		t.Fatalf("snapshot gauges = %#v, want empty", snap.Gauges)
	}
	if occ := snap.Histograms["occ"]; occ.Count != 4 || occ.Sum != 4 || len(occ.Bounds) != 2 {
		t.Fatalf("snapshot histogram = %+v", occ)
	}
	s.Reset()
	snap = s.Snapshot()
	if len(s.Names()) != 0 || len(snap.Counters) != 0 || snap.Histograms["occ"].Count != 0 {
		t.Fatalf("Reset left names %v, snapshot %+v", s.Names(), snap)
	}
	c.Set(9)
	if s.Get("a") != 9 {
		t.Fatalf("post-reset handle write lost: %v", s.Get("a"))
	}
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"a":9}` {
		t.Fatalf("JSON form = %s, want the touched counters only", b)
	}
}
