package sim

import (
	"testing"

	"dx100/internal/obs"
	"dx100/internal/obs/span"
)

// TestEngineZeroAllocsWithNilTrace pins the zero-cost-when-off half of
// the observability contract: with no sink attached (Engine.Trace nil),
// neither the dense per-cycle path nor the sparse fast-forward path
// allocates in steady state. A regression here means tracing leaked
// into the hot loop.
func TestEngineZeroAllocsWithNilTrace(t *testing.T) {
	// Dense regime: every ticker busy, Step does all the work.
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Register(&busyHinter{})
	}
	for i := 0; i < 256; i++ {
		e.Step() // reach the heap's steady state before measuring
	}
	if n := testing.AllocsPerRun(500, func() { e.Step() }); n != 0 {
		t.Fatalf("dense Step allocates %.1f allocs/op with nil trace, want 0", n)
	}

	// Event-heavy regime: every cycle schedules events on both sides
	// of the wheel horizon, so Step fires wheel slots and heap events.
	e4 := NewEngine()
	e4.Register(&scheduler{e: e4})
	for i := 0; i < 1024; i++ {
		e4.Step()
	}
	if n := testing.AllocsPerRun(500, func() { e4.Step() }); n != 0 {
		t.Fatalf("event-heavy Step allocates %.1f allocs/op with nil trace, want 0", n)
	}

	// Sparse regime: Run covers the cycles almost entirely by
	// fast-forward jumps — the path that consults Engine.Trace.
	e2 := NewEngine()
	e2.Register(&sparseTicker{period: 1000, limit: 1 << 62})
	var target Cycle
	done := func() bool { return e2.now >= target }
	run := func() {
		target = e2.now + 100_000
		if _, err := e2.Run(done); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up
	if jumps, _ := e2.FastForwarded(); jumps == 0 {
		t.Fatal("sparse run took no fast-forward jumps; the pin measures nothing")
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("sparse Run allocates %.1f allocs/op with nil trace, want 0", n)
	}

	// Check-hook regime with spans disabled: a periodic Check that
	// drives a nil *span.Recorder — the exact shape instrumented
	// callers take when tracing is off — must stay free too.
	e3 := NewEngine()
	e3.Register(&sparseTicker{period: 1000, limit: 1 << 62})
	var disabled *span.Recorder
	checks := 0
	e3.CheckEvery = 10_000
	e3.Check = func(now Cycle) error {
		checks++
		sp := disabled.Start("check", span.Context{})
		sp.SetStatus(int64(now))
		sp.End()
		return nil
	}
	var target3 Cycle
	done3 := func() bool { return e3.now >= target3 }
	run3 := func() {
		target3 = e3.now + 100_000
		if _, err := e3.Run(done3); err != nil {
			t.Fatal(err)
		}
	}
	run3() // warm up
	if checks == 0 {
		t.Fatal("Check hook never fired; the pin measures nothing")
	}
	if n := testing.AllocsPerRun(100, run3); n != 0 {
		t.Fatalf("Run with nil-span Check hook allocates %.1f allocs/op, want 0", n)
	}
}

// BenchmarkSchedulePop measures one event's life in steady state: its
// Schedule, then the Step that fires it. Delays fall on both sides of
// the wheel horizon, so the mix covers wheel slots and the heap. The
// -benchmem column pins zero allocations per event.
func BenchmarkSchedulePop(b *testing.B) {
	delays := [...]Cycle{1, 4, 12, 42, 52, 63, 64, 65, 200}
	e := NewEngine()
	for i := 0; i < 4096; i++ { // reach every slot's high-water mark
		e.After(delays[i%len(delays)], nop)
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(delays[i%len(delays)], nop)
		e.Step()
	}
}

// scheduler is a ticker that schedules events every cycle, with delays
// on both sides of the wheel horizon.
type scheduler struct {
	e *Engine
	n int
}

func (s *scheduler) Tick(now Cycle) bool {
	s.n++
	s.e.After(Cycle(1+s.n%8), nop)
	if s.n%4 == 0 {
		s.e.After(wheelSize+Cycle(s.n%64), nop)
	}
	return true
}

// busyHinter is always busy and always declines the jump — the dense
// regime, where every cycle is stepped.
type busyHinter struct{ n uint64 }

func (t *busyHinter) Tick(now Cycle) bool              { t.n++; return true }
func (t *busyHinter) NextWake(now Cycle) (Cycle, bool) { return now + 1, true }

// BenchmarkEngineStepDense measures the per-cycle cost when every
// ticker has work: fast-forward never engages, so this is the price of
// the hot loop itself.
func BenchmarkEngineStepDense(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Register(&busyHinter{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepSparse measures simulated-cycles-per-second when
// tickers are idle in long stretches: each ticker acts every 1000
// cycles and hints accordingly, so Run covers b.N cycles almost
// entirely by jumping.
func BenchmarkEngineStepSparse(b *testing.B) {
	e := NewEngine()
	s := &sparseTicker{period: 1000, limit: 1 << 62}
	e.Register(s)
	b.ReportAllocs()
	b.ResetTimer()
	target := e.now + Cycle(b.N)
	if _, err := e.Run(func() bool { return e.now >= target }); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineStepSparseTraced is the enabled-cost companion to
// BenchmarkEngineStepSparse: same sparse run with a ring sink attached,
// so every fast-forward jump emits an event. Compare the two to see
// what turning tracing on costs on the jump path (the per-cycle path
// never consults the sink either way).
func BenchmarkEngineStepSparseTraced(b *testing.B) {
	e := NewEngine()
	e.Trace = obs.NewSink(1 << 12)
	s := &sparseTicker{period: 1000, limit: 1 << 62}
	e.Register(s)
	b.ReportAllocs()
	b.ResetTimer()
	target := e.now + Cycle(b.N)
	if _, err := e.Run(func() bool { return e.now >= target }); err != nil {
		b.Fatal(err)
	}
}
