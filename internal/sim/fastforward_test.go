package sim

import (
	"testing"

	"dx100/internal/obs"
)

// sparseTicker acts only on cycles that are multiples of period: it
// counts an action and finishes after limit actions. It hints the next
// multiple and accounts skipped cycles, so it exercises the full
// fast-forward contract.
type sparseTicker struct {
	period  Cycle
	limit   int
	acted   int
	cycles  uint64 // per-cycle statistic maintained while unfinished
	skipped uint64
}

func (s *sparseTicker) Tick(now Cycle) bool {
	if s.acted >= s.limit {
		return false
	}
	s.cycles++
	if uint64(now)%uint64(s.period) == 0 {
		s.acted++
	}
	return s.acted < s.limit
}

func (s *sparseTicker) NextWake(now Cycle) (Cycle, bool) {
	if s.acted >= s.limit {
		return NeverWake, true
	}
	next := (uint64(now)/uint64(s.period) + 1) * uint64(s.period)
	return Cycle(next), true
}

func (s *sparseTicker) SkipCycles(from, to Cycle) {
	if s.acted >= s.limit {
		return
	}
	n := uint64(to - from - 1)
	s.cycles += n
	s.skipped += n
}

func TestFastForwardMatchesCycleByCycle(t *testing.T) {
	run := func(disable bool) (Cycle, *sparseTicker, *Engine) {
		e := NewEngine()
		e.DisableFastForward = disable
		s := &sparseTicker{period: 100, limit: 7}
		e.Register(s)
		end, err := e.Run(nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return end, s, e
	}
	endFF, sFF, eFF := run(false)
	endSlow, sSlow, _ := run(true)
	if endFF != endSlow {
		t.Fatalf("end cycle: ff=%d, slow=%d", endFF, endSlow)
	}
	if sFF.acted != sSlow.acted || sFF.cycles != sSlow.cycles {
		t.Fatalf("stats diverge: ff acted=%d cycles=%d, slow acted=%d cycles=%d",
			sFF.acted, sFF.cycles, sSlow.acted, sSlow.cycles)
	}
	jumps, skipped := eFF.FastForwarded()
	if jumps == 0 || skipped == 0 {
		t.Fatalf("fast-forward never engaged: jumps=%d skipped=%d", jumps, skipped)
	}
	if sFF.skipped != skipped {
		t.Fatalf("SkipCycles saw %d cycles, engine skipped %d", sFF.skipped, skipped)
	}
}

func TestFastForwardBoundedByEvents(t *testing.T) {
	e := NewEngine()
	s := &sparseTicker{period: 1000, limit: 2}
	e.Register(s)
	var fired Cycle
	e.Schedule(41, func(now Cycle) { fired = now })
	if _, err := e.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 41 {
		t.Fatalf("event fired at %d, want 41 (jump overshot the heap head)", fired)
	}
}

// staleHinter always hints a cycle in the past. The engine must treat
// that as "may act next cycle": never jump, never stall, never move
// the clock backwards.
type staleHinter struct {
	remaining int
}

func (s *staleHinter) Tick(now Cycle) bool {
	if s.remaining > 0 {
		s.remaining--
	}
	return s.remaining > 0
}

func (s *staleHinter) NextWake(now Cycle) (Cycle, bool) {
	if now > 3 {
		return now - 3, true // stale: strictly in the past
	}
	return 0, true
}

func TestStaleHintCannotStallOrSkipTime(t *testing.T) {
	e := NewEngine()
	e.MaxCycles = 1000 // backstop: a stall would trip this
	tk := &staleHinter{remaining: 20}
	e.Register(tk)
	end, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 20 {
		t.Fatalf("end = %d, want 20 (stale hints must fall back to stepping)", end)
	}
	if jumps, _ := e.FastForwarded(); jumps != 0 {
		t.Fatalf("engine jumped %d times on stale hints", jumps)
	}
}

func TestFastForwardRespectsMaxCycles(t *testing.T) {
	run := func(disable bool) (Cycle, error) {
		e := NewEngine()
		e.MaxCycles = 500
		e.DisableFastForward = disable
		e.Register(&sparseTicker{period: 100000, limit: 1}) // hints far past the limit
		return e.Run(nil)
	}
	endFF, errFF := run(false)
	endSlow, errSlow := run(true)
	if errFF == nil || errSlow == nil {
		t.Fatalf("want cycle-limit errors, got ff=%v slow=%v", errFF, errSlow)
	}
	if endFF != endSlow {
		t.Fatalf("limit hit at ff=%d, slow=%d — the jump overshot MaxCycles", endFF, endSlow)
	}
}

func TestNonHintingTickerDisablesFastForward(t *testing.T) {
	e := NewEngine()
	e.Register(&sparseTicker{period: 50, limit: 3})
	e.Register(TickerFunc(func(now Cycle) bool { return false })) // no WakeHinter
	if _, err := e.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if jumps, _ := e.FastForwarded(); jumps != 0 {
		t.Fatalf("engine jumped %d times with a non-hinting ticker registered", jumps)
	}
}

// TestRunDoneSampledAtCycleBoundary pins Run's completion semantics:
// done is sampled once per cycle, after that cycle's events have fired
// AND every ticker has been stepped. A predicate satisfied by an event
// (which fires before the ticks) must still see the full cycle's
// ticks, and Run must return that same cycle.
func TestRunDoneSampledAtCycleBoundary(t *testing.T) {
	e := NewEngine()
	tk := &countTicker{remaining: 1 << 30} // busy forever, counts its ticks
	e.Register(tk)
	finished := false
	e.Schedule(5, func(Cycle) { finished = true })
	end, err := e.Run(func() bool { return finished })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 5 {
		t.Fatalf("Run returned at cycle %d, want 5", end)
	}
	if tk.ticks != 5 {
		t.Fatalf("ticker stepped %d times, want 5: cycle 5 must be a full step even though done() became true in its event phase", tk.ticks)
	}
}

// The generic event heap must not allocate once its backing slice has
// reached the high-water mark: no interface boxing on push or pop.
func TestSchedulePopZeroAllocsSteadyState(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 256; i++ { // grow the heap to its high-water mark
		e.Schedule(Cycle(1000+i), nop)
	}
	for e.events.len() > 0 {
		e.events.pop()
	}
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(e.now+Cycle(1+i%16), nop)
		}
		for e.events.len() > 0 {
			e.events.pop()
		}
	})
	if avg != 0 {
		t.Fatalf("Schedule/pop allocates %.2f objects per round in steady state, want 0", avg)
	}
}

func nop(Cycle) {}

// declineUntil declines every jump before cycle until, then sleeps.
type declineUntil struct{ until Cycle }

func (d *declineUntil) Tick(now Cycle) bool { return now < d.until }

func (d *declineUntil) NextWake(now Cycle) (Cycle, bool) {
	if now < d.until {
		return now + 1, true
	}
	return NeverWake, true
}

// TestDeclinesChargeTheFirstDecliner pins the stepping counters: the
// engine asks the latest-registered hinter first and charges a visited
// cycle to the first one that declines, and Visited is the clock minus
// the skipped cycles.
func TestDeclinesChargeTheFirstDecliner(t *testing.T) {
	e := NewEngine()
	s := &sparseTicker{period: 10, limit: 5}
	d := &declineUntil{until: 30}
	e.Register(s)
	e.Register(d)
	end, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Cycles 1-30 are stepped, 31-39 and 41-49 jumped, 40 and 50 stepped.
	jumps, skipped := e.FastForwarded()
	if end != 50 || jumps != 2 || skipped != 18 || e.Visited() != 32 {
		t.Fatalf("end=%d jumps=%d skipped=%d visited=%d, want 50/2/18/32", end, jumps, skipped, e.Visited())
	}
	decl := e.Declines()
	if len(decl) != 2 || decl[0].Ticker != s || decl[1].Ticker != d {
		t.Fatalf("Declines lists %v, want the two tickers in registration order", decl)
	}
	// d declines on cycles 1-29 and is asked first, so s is never asked
	// while d declines.
	if decl[0].Cycles != 0 || decl[1].Cycles != 29 {
		t.Fatalf("declines = %d, %d, want 0, 29", decl[0].Cycles, decl[1].Cycles)
	}
}

// TestNoZeroLengthJumps: when an event is due next cycle there is
// nothing to skip, so the engine takes no jump, calls no SkipCycles and
// emits no trace event, even though every hinter hints later.
func TestNoZeroLengthJumps(t *testing.T) {
	e := NewEngine()
	e.Trace = obs.NewSink(0)
	s := &sparseTicker{period: 1000, limit: 1}
	e.Register(s)
	for at := Cycle(1); at <= 20; at++ {
		e.Schedule(at, nop)
	}
	end, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	jumps, skipped := e.FastForwarded()
	if end != 1000 || jumps != 1 || skipped != 979 {
		t.Fatalf("end=%d jumps=%d skipped=%d, want 1000/1/979", end, jumps, skipped)
	}
	if s.skipped != skipped {
		t.Fatalf("SkipCycles saw %d cycles, engine skipped %d", s.skipped, skipped)
	}
	for _, ev := range e.Trace.Events() {
		if ev.Args[1] == 0 {
			t.Fatalf("zero-length jump traced at cycle %d", ev.Cycle)
		}
	}
	if n := e.Trace.Total(); n != 1 {
		t.Fatalf("%d jump events traced, want 1", n)
	}
}
