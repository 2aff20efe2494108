package sim

import (
	"testing"
	"testing/quick"
)

type countTicker struct {
	remaining int
	ticks     int
}

func (c *countTicker) Tick(now Cycle) bool {
	c.ticks++
	if c.remaining > 0 {
		c.remaining--
	}
	return c.remaining > 0
}

func TestEngineRunsUntilQuiescent(t *testing.T) {
	e := NewEngine()
	tk := &countTicker{remaining: 10}
	e.Register(tk)
	end, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 10 {
		t.Fatalf("end cycle = %d, want 10", end)
	}
	if tk.ticks != 10 {
		t.Fatalf("ticks = %d, want 10", tk.ticks)
	}
}

func TestEngineEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5, func(Cycle) { order = append(order, 1) })
	e.Schedule(3, func(Cycle) { order = append(order, 0) })
	e.Schedule(5, func(Cycle) { order = append(order, 2) }) // same cycle: FIFO
	if _, err := e.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineEventFiresAtScheduledCycle(t *testing.T) {
	e := NewEngine()
	var fired Cycle
	e.Schedule(7, func(now Cycle) { fired = now })
	if _, err := e.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 7 {
		t.Fatalf("fired at %d, want 7", fired)
	}
}

func TestEnginePastEventFiresNextCycle(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.Step()
	}
	var fired Cycle
	e.Schedule(1, func(now Cycle) { fired = now }) // in the past
	e.Step()
	if fired != 5 {
		t.Fatalf("fired at %d, want 5", fired)
	}
}

func TestEngineAfterDelay(t *testing.T) {
	e := NewEngine()
	var fired Cycle
	e.Step() // now = 1
	e.After(9, func(now Cycle) { fired = now })
	if _, err := e.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 10 {
		t.Fatalf("fired at %d, want 10", fired)
	}
}

func TestEngineDeadlockDetection(t *testing.T) {
	e := NewEngine()
	_, err := e.Run(func() bool { return false })
	if err == nil {
		t.Fatal("want deadlock error, got nil")
	}
}

func TestEngineMaxCycles(t *testing.T) {
	e := NewEngine()
	e.MaxCycles = 100
	tk := &countTicker{remaining: 1 << 30}
	e.Register(tk)
	_, err := e.Run(nil)
	if err == nil {
		t.Fatal("want cycle-limit error, got nil")
	}
}

func TestEngineChainedEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var chain func(now Cycle)
	chain = func(now Cycle) {
		depth++
		if depth < 50 {
			e.After(2, chain)
		}
	}
	e.After(1, chain)
	end, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if end != 1+49*2 {
		t.Fatalf("end = %d, want %d", end, 1+49*2)
	}
}

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	s.Counter("a").Inc()
	s.Counter("a").Add(2)
	s.Counter("b").Set(7)
	if got := s.Get("a"); got != 3 {
		t.Fatalf("a = %v, want 3", got)
	}
	if got := s.Get("b"); got != 7 {
		t.Fatalf("b = %v, want 7", got)
	}
	if got := s.Get("missing"); got != 0 {
		t.Fatalf("missing = %v, want 0", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("Geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %v, want 0", g)
	}
	if g := Geomean([]float64{-1, 0}); g != 0 {
		t.Fatalf("Geomean(nonpositive) = %v, want 0", g)
	}
}

// Property: the geometric mean of a slice of equal positive values is
// that value.
func TestGeomeanIdentityProperty(t *testing.T) {
	f := func(v uint8, n uint8) bool {
		x := float64(v%100) + 1
		cnt := int(n%16) + 1
		xs := make([]float64, cnt)
		for i := range xs {
			xs[i] = x
		}
		g := Geomean(xs)
		return g > x*0.999 && g < x*1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: events always fire in non-decreasing cycle order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		var fired []Cycle
		for _, d := range delays {
			e.Schedule(Cycle(d%64)+1, func(now Cycle) { fired = append(fired, now) })
		}
		if _, err := e.Run(nil); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsReset(t *testing.T) {
	s := NewStats()
	s.Counter("x").Add(5)
	s.Reset()
	if s.Get("x") != 0 || len(s.Names()) != 0 {
		t.Fatal("Reset did not clear counters")
	}
	s.Counter("y").Inc()
	if s.Get("y") != 1 {
		t.Fatal("registry unusable after Reset")
	}
}

func TestTickerFuncAdapter(t *testing.T) {
	calls := 0
	e := NewEngine()
	e.Register(TickerFunc(func(now Cycle) bool {
		calls++
		return calls < 3
	}))
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestStatsString(t *testing.T) {
	s := NewStats()
	s.Counter("alpha").Set(1)
	if out := s.String(); out == "" {
		t.Fatal("empty String")
	}
}
