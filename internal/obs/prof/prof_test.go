package prof

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestBucketNamesStable(t *testing.T) {
	names := BucketNames()
	if len(names) != int(NumBuckets) {
		t.Fatalf("BucketNames has %d entries, want %d", len(names), NumBuckets)
	}
	// The names are wire format (Breakdown JSON); changing them breaks
	// stored results, so pin them.
	want := []string{"busy", "spin", "rob_full", "lq_sq_full", "dep_indirect", "dram_bound", "other"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("bucket %d = %q, want %q", i, names[i], n)
		}
		if Bucket(i).String() != n {
			t.Errorf("Bucket(%d).String() = %q, want %q", i, Bucket(i).String(), n)
		}
	}
}

func TestCoreAccountConservation(t *testing.T) {
	var a CoreAccount
	total := uint64(0)
	for i := 0; i < 1000; i++ {
		b := Bucket(i % int(NumBuckets))
		n := uint64(i%7 + 1)
		a.Add(b, n)
		total += n
	}
	if a.Total() != total {
		t.Fatalf("Total = %d, want %d", a.Total(), total)
	}
}

func TestBreakdownTotals(t *testing.T) {
	a1, a2 := &CoreAccount{}, &CoreAccount{}
	a1.Add(Busy, 10)
	a1.Add(DRAMBound, 5)
	a2.Add(Busy, 3)
	a2.Add(DepIndirect, 7)
	b := NewBreakdown([]*CoreAccount{a1, a2})
	tot := b.Totals()
	if tot[Busy] != 13 || tot[DRAMBound] != 5 || tot[DepIndirect] != 7 {
		t.Fatalf("Totals = %v", tot)
	}
	// The breakdown must be a copy, not an alias.
	a1.Add(Busy, 100)
	if b.Cores[0][Busy] != 10 {
		t.Fatal("Breakdown aliases the live account")
	}
}

func TestSamplerRatioAndGauge(t *testing.T) {
	var num, den, gauge float64
	s := NewSampler(100)
	s.Ratio("r", func() float64 { return num }, func() float64 { return den })
	s.Gauge("g", func() float64 { return gauge })

	// Warm-up noise before Begin must not leak into the first window.
	num, den = 500, 1000
	s.Begin(5000)

	num += 30
	den += 60
	gauge = 7
	if !s.Due(5100) {
		t.Fatal("window elapsed but sampler not due")
	}
	s.Sample(5100)

	// Second window: denominator frozen → ratio must be 0, not NaN.
	gauge = 2
	s.Sample(5200)

	tl := s.Finish(5200) // same cycle: must not add a zero-width row
	if tl.Len() != 2 {
		t.Fatalf("timeline has %d rows, want 2", tl.Len())
	}
	if tl.Cycles[0] != 100 || tl.Cycles[1] != 200 {
		t.Fatalf("cycles = %v, want [100 200] (start-relative)", tl.Cycles)
	}
	get := func(name string, i int) float64 {
		for _, sr := range tl.Series {
			if sr.Name == name {
				return sr.Values[i]
			}
		}
		t.Fatalf("series %q missing", name)
		return 0
	}
	if v := get("r", 0); v != 0.5 {
		t.Errorf("ratio window 0 = %v, want 0.5", v)
	}
	if v := get("r", 1); v != 0 {
		t.Errorf("ratio with frozen denominator = %v, want 0", v)
	}
	if v := get("g", 0); v != 7 {
		t.Errorf("gauge window 0 = %v, want 7", v)
	}
	if v := get("g", 1); v != 2 {
		t.Errorf("gauge window 1 = %v, want 2", v)
	}

	// The wire form must always marshal (no NaN/Inf by construction).
	if _, err := json.Marshal(tl); err != nil {
		t.Fatalf("timeline does not marshal: %v", err)
	}
}

func TestSamplerOnSample(t *testing.T) {
	var depth float64
	s := NewSampler(10)
	s.Gauge("d", func() float64 { return depth })
	var cycles []uint64
	var vals []float64
	s.OnSample = func(cycle uint64, names []string, values []float64) {
		if len(names) != 1 || names[0] != "d" {
			t.Fatalf("names = %v", names)
		}
		cycles = append(cycles, cycle)
		vals = append(vals, values[0])
	}
	s.Begin(0)
	depth = 3
	s.Sample(10)
	depth = 6
	s.Finish(14)
	if len(cycles) != 2 || cycles[0] != 10 || cycles[1] != 14 {
		t.Fatalf("OnSample cycles = %v", cycles)
	}
	if vals[0] != 3 || vals[1] != 6 {
		t.Fatalf("OnSample values = %v", vals)
	}
}

func TestSamplerShortRun(t *testing.T) {
	s := NewSampler(1 << 20)
	s.Gauge("g", func() float64 { return 1 })
	s.Begin(0)
	tl := s.Finish(42) // far short of one window
	if tl.Len() != 1 || tl.Cycles[0] != 42 {
		t.Fatalf("short run timeline = %+v, want one row at 42", tl)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 0, 0}); got != "▁▁▁" {
		t.Errorf("flat sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 0.5, 1})
	if !strings.HasSuffix(got, "█") || !strings.HasPrefix(got, "▁") {
		t.Errorf("ramp sparkline = %q, want ▁..█", got)
	}
	// Down-sampling keeps the width bounded.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	if n := len([]rune(Sparkline(condense(long)))); n > sparkWidth {
		t.Errorf("condensed sparkline is %d runes, want <= %d", n, sparkWidth)
	}
}

func TestReports(t *testing.T) {
	var depth float64
	s := NewSampler(10)
	s.Gauge("dram_queue", func() float64 { return depth })
	s.Begin(0)
	depth = 100
	s.Sample(10)
	depth = 300
	tl := s.Finish(20)

	var b strings.Builder
	if err := tl.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "dram_queue") || !strings.Contains(out, "2 windows") {
		t.Errorf("timeline report missing content:\n%s", out)
	}

	a1, a2 := &CoreAccount{}, &CoreAccount{}
	a1.Add(Busy, 75)
	a1.Add(DRAMBound, 25)
	a2.Add(DepIndirect, 50)
	a2.Add(Busy, 50)
	bd := NewBreakdown([]*CoreAccount{a1, a2})
	b.Reset()
	if err := bd.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, want := range []string{"dep_indirect", "75.0%", "(100 cycles)", "all"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown report missing %q:\n%s", want, out)
		}
	}

	// Empty inputs render a note rather than panicking.
	b.Reset()
	var empty *Timeline
	if err := empty.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	var emptyBd *Breakdown
	if err := emptyBd.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
}
