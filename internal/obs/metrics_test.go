package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterTouchedSemantics(t *testing.T) {
	var c Counter
	if c.Touched() {
		t.Fatal("fresh counter is touched")
	}
	c.Add(2)
	c.Inc()
	if c.Value() != 3 || !c.Touched() {
		t.Fatalf("value = %v touched = %v, want 3, true", c.Value(), c.Touched())
	}
	// Reset un-touches and zeroes; the handle keeps working.
	c.Reset()
	if c.Touched() || c.Value() != 0 {
		t.Fatalf("reset did not clear: touched=%v v=%v", c.Touched(), c.Value())
	}
	c.Set(9)
	if c.Value() != 9 || !c.Touched() {
		t.Fatalf("post-reset handle write lost: %v", c.Value())
	}
	// A zero Add still touches: a statistic that ran and counted
	// nothing is listed, one never written is not.
	var z Counter
	z.Add(0)
	if !z.Touched() {
		t.Fatal("zero Add left the counter untouched")
	}
}

func TestHistogramBucketsAndObserveN(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 4})
	h.Observe(0)
	h.Observe(1)
	h.Observe(3)
	h.Observe(100) // +Inf bucket
	h.ObserveN(3, 5)
	snap := h.Snapshot()
	wantCounts := []uint64{1, 1, 0, 6, 1}
	for i, c := range wantCounts {
		if snap.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], c, snap.Counts)
		}
	}
	if snap.Count != 9 {
		t.Fatalf("count = %d, want 9", snap.Count)
	}
	if snap.Sum != 0+1+3+100+15 {
		t.Fatalf("sum = %v", snap.Sum)
	}
	// ObserveN(v, n) must equal n unit observes bit-for-bit.
	a := NewHistogram([]float64{0, 2, 8})
	b := NewHistogram([]float64{0, 2, 8})
	a.ObserveN(5, 1000)
	for i := 0; i < 1000; i++ {
		b.Observe(5)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Sum != sb.Sum || sa.Count != sb.Count {
		t.Fatalf("ObserveN diverges from unit observes: %+v vs %+v", sa, sb)
	}
	// Reset clears the observations and keeps the bounds.
	h.Reset()
	if r := h.Snapshot(); r.Count != 0 || r.Sum != 0 || len(r.Bounds) != 4 || r.Counts[3] != 0 {
		t.Fatalf("reset left %+v", r)
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(32)
	want := []float64{0, 1, 2, 4, 8, 16, 32}
	if len(got) != len(want) {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
}

func TestWritePrometheusDeterministicAndLabeled(t *testing.T) {
	occ := NewHistogram([]float64{0, 1})
	occ.ObserveN(1, 4)
	snap := Snapshot{
		Counters:   map[string]float64{"dram.rowhits": 12, "core0.instructions": 3},
		Gauges:     map[string]float64{"queue.depth": 5},
		Histograms: map[string]HistogramSnapshot{"occ": occ.Snapshot()},
	}
	var a, b strings.Builder
	if err := snap.WritePrometheus(&a, "dx100_run_", Label{"run", "abc"}); err != nil {
		t.Fatal(err)
	}
	if err := snap.WritePrometheus(&b, "dx100_run_", Label{"run", "abc"}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two encodings of one snapshot differ")
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE dx100_run_dram_rowhits counter",
		`dx100_run_dram_rowhits{run="abc"} 12`,
		`dx100_run_core0_instructions{run="abc"} 3`,
		"# TYPE dx100_run_queue_depth gauge",
		`dx100_run_queue_depth{run="abc"} 5`,
		"# TYPE dx100_run_occ histogram",
		`dx100_run_occ_bucket{run="abc",le="1"} 4`,
		`dx100_run_occ_bucket{run="abc",le="+Inf"} 4`,
		`dx100_run_occ_sum{run="abc"} 4`,
		`dx100_run_occ_count{run="abc"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"dram.rowhits":        "dram_rowhits",
		"dx100.0.rt.inserts":  "dx100_0_rt_inserts",
		"9lives":              "_9lives",
		"already_fine:metric": "already_fine:metric",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	h := NewHistogram([]float64{0, 1})
	h.Observe(1)
	b, err := json.Marshal(Snapshot{
		Counters:   map[string]float64{"c": 1},
		Gauges:     map[string]float64{"g": 2},
		Histograms: map[string]HistogramSnapshot{"h": h.Snapshot()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 1 || back.Gauges["g"] != 2 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
