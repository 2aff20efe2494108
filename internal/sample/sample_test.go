package sample

import (
	"math"
	"testing"

	"dx100/internal/cache"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

func TestSummarize(t *testing.T) {
	if ci := Summarize(nil); ci != (CI{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", ci)
	}
	if ci := Summarize([]float64{2.5}); ci.Mean != 2.5 || ci.Half != 0 || ci.N != 1 {
		t.Errorf("Summarize(one) = %+v, want mean=2.5 half=0 n=1", ci)
	}
	// Known sample: mean 3, sd 1, n 5 → half = 1.96/√5.
	ci := Summarize([]float64{2, 2, 3, 4, 4})
	if ci.N != 5 || math.Abs(ci.Mean-3) > 1e-15 {
		t.Fatalf("Summarize = %+v, want mean=3 n=5", ci)
	}
	want := 1.96 * 1 / math.Sqrt(5)
	if math.Abs(ci.Half-want) > 1e-12 {
		t.Errorf("half = %v, want %v", ci.Half, want)
	}
	// Identical samples give a zero-width interval.
	if ci := Summarize([]float64{7, 7, 7}); ci.Half != 0 || ci.Mean != 7 {
		t.Errorf("Summarize(const) = %+v, want mean=7 half=0", ci)
	}
}

// touchRecorder is a fake Level that records functional touches.
type touchRecorder struct {
	touched []memspace.PAddr
	kinds   []cache.Kind
}

func (r *touchRecorder) Access(sim.Cycle, memspace.PAddr, cache.Kind, func(sim.Cycle)) bool {
	panic("sample: Warm must not use the timed access path")
}
func (r *touchRecorder) Touch(a memspace.PAddr, k cache.Kind) {
	r.touched = append(r.touched, a)
	r.kinds = append(r.kinds, k)
}

func TestWarmTouchesEveryLine(t *testing.T) {
	rec := &touchRecorder{}
	// Two ranges: one misaligned (Lo inside a line), one exactly two
	// lines long.
	Warm(rec, []Range{
		{Lo: memspace.LineSize + 7, Hi: 3 * memspace.LineSize},
		{Lo: 10 * memspace.LineSize, Hi: 12 * memspace.LineSize},
	})
	want := []memspace.PAddr{
		1 * memspace.LineSize, 2 * memspace.LineSize,
		10 * memspace.LineSize, 11 * memspace.LineSize,
	}
	if len(rec.touched) != len(want) {
		t.Fatalf("touched %d lines %v, want %d %v", len(rec.touched), rec.touched, len(want), want)
	}
	for i, a := range want {
		if rec.touched[i] != a {
			t.Errorf("touch %d = %#x, want %#x", i, rec.touched[i], a)
		}
		if rec.kinds[i] != cache.Load {
			t.Errorf("touch %d kind = %v, want Load", i, rec.kinds[i])
		}
	}
}

// nonToucher is a Level without a functional path; Warm must treat it
// as a sink rather than panic or fall back to timed accesses.
type nonToucher struct{}

func (nonToucher) Access(sim.Cycle, memspace.PAddr, cache.Kind, func(sim.Cycle)) bool { return true }

func TestWarmSkipsNonToucher(t *testing.T) {
	Warm(nonToucher{}, []Range{{Lo: 0, Hi: 4 * memspace.LineSize}})
}
