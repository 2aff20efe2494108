package obs

import (
	"math"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniformly in (1,2]: every quantile interpolates
	// inside that single bucket.
	h.ObserveN(1.5, 100)
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 1.5},
		{0.95, 1.95},
		{0.99, 1.99},
		{1.0, 2.0},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	h.ObserveN(0.5, 50) // bucket (0,1]
	h.ObserveN(3, 30)   // bucket (2,4]
	h.ObserveN(6, 20)   // bucket (4,8]
	s := h.Snapshot()
	// Rank 50 sits exactly at the top of the first bucket.
	if got := s.Quantile(0.5); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("p50 = %v, want 1.0", got)
	}
	// Rank 95 is 15/20 of the way through the (4,8] bucket.
	if got := s.Quantile(0.95); math.Abs(got-7.0) > 1e-9 {
		t.Errorf("p95 = %v, want 7.0", got)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	s := h.Snapshot()
	if got := s.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %v, want NaN", got)
	}
	h.Observe(100) // lands in +Inf bucket
	s = h.Snapshot()
	// Everything in the overflow bucket clamps to the last finite bound.
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("overflow-bucket quantile = %v, want clamp to 2", got)
	}
	if got := s.Quantile(-0.1); !math.IsNaN(got) {
		t.Errorf("Quantile(-0.1) = %v, want NaN", got)
	}
	if got := s.Quantile(1.1); !math.IsNaN(got) {
		t.Errorf("Quantile(1.1) = %v, want NaN", got)
	}
}
