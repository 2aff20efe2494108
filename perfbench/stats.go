package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the q-th percentile (0 < q < 100) of xs by linear
// interpolation between closest ranks, or 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder lists the percentiles a latency is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail is one reported latency percentile with the sample count it was
// taken from.
type tail struct {
	Pctl  float64 // which percentile, e.g. 99
	Value float64
	N     int
}

// tailPercentile returns the highest percentile on tailLadder that has
// at least minBeyond samples beyond it, with its value and the sample
// count. ok is false when even the median lacks that support.
func tailPercentile(xs []float64) (t tail, ok bool) {
	n := len(xs)
	for _, q := range tailLadder {
		if float64(n)*(1-q/100) >= minBeyond-1e-9 {
			return tail{Pctl: q, Value: percentile(xs, q), N: n}, true
		}
	}
	return tail{N: n}, false
}
