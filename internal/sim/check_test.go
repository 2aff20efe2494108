package sim

import (
	"encoding/json"
	"errors"
	"testing"
)

// slowTicker stays busy for the given number of cycles, hinting one
// cycle ahead so fast-forward stays engaged.
type slowTicker struct {
	remaining int
}

func (s *slowTicker) Tick(now Cycle) bool {
	if s.remaining > 0 {
		s.remaining--
	}
	return s.remaining > 0
}

func (s *slowTicker) NextWake(now Cycle) (Cycle, bool) { return now + 1, true }

func TestCheckAbortsRun(t *testing.T) {
	e := NewEngine()
	e.Register(&countTicker{remaining: 1 << 16})
	e.CheckEvery = 1024
	sentinel := errors.New("canceled")
	var at Cycle
	e.Check = func(now Cycle) error {
		at = now
		return sentinel
	}
	end, err := e.Run(nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run err = %v, want the check's error", err)
	}
	if at == 0 || end != at {
		t.Fatalf("aborted at cycle %d, check fired at %d; want equal and nonzero", end, at)
	}
	if at < 1024 || at > 2048 {
		t.Fatalf("first check fired at %d, want within [1024, 2048]", at)
	}
}

func TestCheckCadenceAndFinalCycle(t *testing.T) {
	e := NewEngine()
	e.Register(&countTicker{remaining: 10_000})
	e.CheckEvery = 1000
	var fires []Cycle
	e.Check = func(now Cycle) error {
		fires = append(fires, now)
		return nil
	}
	end, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 10_000 {
		t.Fatalf("end = %d, want 10000", end)
	}
	if len(fires) < 9 {
		t.Fatalf("check fired %d times over 10k cycles at cadence 1000, want >= 9", len(fires))
	}
	for i, c := range fires {
		if i > 0 && c-fires[i-1] < 1000 {
			t.Fatalf("checks %d cycles apart, want >= CheckEvery", c-fires[i-1])
		}
	}
}

// TestCheckResultNeutral pins the contract that installing a hook does
// not perturb the simulation: identical final cycle with and without a
// (non-aborting) Check, with fast-forward both on and off.
func TestCheckResultNeutral(t *testing.T) {
	run := func(hook, noFF bool) Cycle {
		e := NewEngine()
		e.DisableFastForward = noFF
		e.Register(&slowTicker{remaining: 50_000})
		e.Schedule(40_000, func(Cycle) {})
		if hook {
			e.CheckEvery = 777
			e.Check = func(Cycle) error { return nil }
		}
		end, err := e.Run(nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return end
	}
	base := run(false, false)
	for _, c := range []struct{ hook, noFF bool }{{true, false}, {false, true}, {true, true}} {
		if got := run(c.hook, c.noFF); got != base {
			t.Fatalf("hook=%v noFF=%v: end %d != baseline %d", c.hook, c.noFF, got, base)
		}
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	s := NewStats()
	s.Counter("dram.reads").Add(1234)
	s.Counter("core0.instructions").Add(5678.5)
	s.Counter("untouched.counter") // handle created but never bumped
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Stats
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("round trip not byte-identical:\n%s\n%s", b1, b2)
	}
	want := `{"core0.instructions":5678.5,"dram.reads":1234}`
	if string(b1) != want {
		t.Fatalf("encoding = %s, want %s (sorted, touched only)", b1, want)
	}
	if back.Get("dram.reads") != 1234 {
		t.Fatalf("decoded dram.reads = %v", back.Get("dram.reads"))
	}
}
