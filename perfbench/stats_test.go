package main

import "testing"

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		pctl float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(seq(c.n))
		if ok != c.ok || got.Pctl != c.pctl || got.N != c.n {
			t.Errorf("n=%d: got p%g ok=%v n=%d, want p%g ok=%v", c.n, got.Pctl, ok, got.N, c.pctl, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d p%g = %g has %d samples beyond it", c.n, got.Pctl, got.Value, beyond)
			}
		}
	}
	if got, _ := tailPercentile(seq(1000)); got.Value != 990.01 {
		t.Errorf("p99 of 1..1000 = %g, want 990.01", got.Value)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{Name: "run", Trace: "t", ID: "a", Start: 0, Dur: 100},
		// Overlapping children cover 10..50; one spills past the parent.
		{Name: "phase", Trace: "t", ID: "b", Parent: "a", Start: 10, Dur: 30},
		{Name: "phase", Trace: "t", ID: "c", Parent: "a", Start: 20, Dur: 30},
		{Name: "tail", Trace: "t", ID: "d", Parent: "a", Start: 90, Dur: 40},
		// Same span id in another trace is not a child.
		{Name: "other", Trace: "u", ID: "e", Parent: "a", Start: 60, Dur: 10},
	}
	self := selfTimes(spans)
	if got := self["run"][0]; got != 50 {
		t.Errorf("run self time %g, want 50", got)
	}
	if got := self["phase"]; got[0] != 30 || got[1] != 30 {
		t.Errorf("leaf self times %v, want their durations", got)
	}
}
