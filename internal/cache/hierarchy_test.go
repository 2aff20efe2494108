package cache

import (
	"testing"

	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

func newTestHierarchy(t *testing.T, cores int) (*sim.Engine, *sim.Stats, *Hierarchy) {
	t.Helper()
	eng := sim.NewEngine()
	eng.MaxCycles = 5_000_000
	st := sim.NewStats()
	mem := dram.NewSystem(eng, dram.DDR4_3200(), st, "dram.")
	h := NewHierarchy(eng, SkylakeLike(cores, 8<<20), mem, st, "")
	return eng, st, h
}

// load drives one demand load through lvl and waits for completion.
func load(t *testing.T, eng *sim.Engine, lvl Level, pa memspace.PAddr) {
	t.Helper()
	done := false
	eng.After(1, func(now sim.Cycle) {
		if !lvl.Access(now, pa, Load, func(sim.Cycle) { done = true }) {
			t.Error("access rejected")
		}
	})
	if _, err := eng.Run(func() bool { return done }); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestHierarchyFillPropagatesThroughAllLevels(t *testing.T) {
	eng, _, h := newTestHierarchy(t, 2)
	pa := memspace.PAddr(0x40_0000)
	load(t, eng, h.L1[0], pa)
	if !h.L1[0].PresentHere(pa) {
		t.Fatal("line not filled into L1[0]")
	}
	if !h.L2[0].PresentHere(pa) {
		t.Fatal("line not filled into L2[0] on the miss path")
	}
	if !h.LLC.PresentHere(pa) {
		t.Fatal("line not filled into the LLC on the miss path")
	}
	// The other core's private levels stay untouched.
	if h.L1[1].PresentHere(pa) || h.L2[1].PresentHere(pa) {
		t.Fatal("fill leaked into the other core's private caches")
	}
	if !h.Present(pa) {
		t.Fatal("Hierarchy.Present misses a resident line")
	}
}

func TestHierarchyDirtyVictimWritesBack(t *testing.T) {
	eng, st, h := newTestHierarchy(t, 1)
	l1 := h.L1[0]
	cfg := l1.Config()
	// Dirty one line, then stream enough same-set lines through to
	// evict it: set stride is Sets*LineSize.
	setStride := memspace.PAddr(cfg.Sets * memspace.LineSize)
	victim := memspace.PAddr(0x100_0000)
	done := false
	eng.After(1, func(now sim.Cycle) {
		if !l1.Access(now, victim, Store, func(sim.Cycle) { done = true }) {
			t.Error("store rejected")
		}
	})
	if _, err := eng.Run(func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= cfg.Ways; i++ {
		load(t, eng, l1, victim+setStride*memspace.PAddr(i))
	}
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if l1.PresentHere(victim) {
		t.Fatal("victim still resident; eviction did not happen")
	}
	if st.Get("l1d.writebacks") == 0 {
		t.Fatal("dirty eviction recorded no writeback")
	}
}

func TestMemAdapterBuffersAndBoundsOverflow(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 5_000_000
	st := sim.NewStats()
	p := dram.DDR4_3200()
	p.Channels = 1
	p.RequestBuffer = 2
	sys := dram.NewSystem(eng, p, st, "dram.")
	a := NewMemAdapter(eng, sys)
	a.MaxPending = 3

	// One address per row so nothing coalesces; all land on channel 0.
	addr := func(i int) memspace.PAddr {
		return sys.Mapper().Unmap(dram.Coord{Row: i})
	}
	completed := 0
	onDone := func(sim.Cycle) { completed++ }
	accepted := 0
	for i := 0; i < p.RequestBuffer+a.MaxPending; i++ {
		if !a.Access(1, addr(i), Load, onDone) {
			t.Fatalf("access %d rejected: buffer %d + pending %d should absorb it",
				i, p.RequestBuffer, a.MaxPending)
		}
		accepted++
	}
	// Beyond request buffer + MaxPending the adapter must push back.
	if a.Access(1, addr(99), Load, onDone) {
		t.Fatal("access accepted past MaxPending: no back-pressure")
	}
	if _, err := eng.Run(func() bool { return completed == accepted }); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if completed != accepted {
		t.Fatalf("completed %d of %d buffered accesses", completed, accepted)
	}
	// After draining, the adapter accepts again.
	if !a.Access(eng.Now(), addr(100), Load, nil) {
		t.Fatal("access rejected after drain")
	}
}

// TestMemAdapterSleepsOnFullChannel pins the adapter's back-pressure
// hint: while its head request's channel is full, Tick can only retry
// in vain, so NextWake gives no wake; once the channel issues a command
// and frees a slot, the adapter wakes on the next cycle.
func TestMemAdapterSleepsOnFullChannel(t *testing.T) {
	eng := sim.NewEngine()
	p := dram.DDR4_3200()
	sys := dram.NewSystem(eng, p, sim.NewStats(), "dram.")
	a := NewMemAdapter(eng, sys)
	addr := func(row int) memspace.PAddr { return sys.Mapper().Unmap(dram.Coord{Row: row}) }
	for i := 0; i <= p.RequestBuffer; i++ {
		if !a.Access(0, addr(i), Load, nil) {
			t.Fatalf("access %d rejected", i)
		}
	}
	if a.pending.len() == 0 {
		t.Fatal("no request overflowed into the adapter's buffer")
	}
	if w, _ := a.NextWake(0); w != sim.NeverWake {
		t.Fatalf("NextWake = %d against a full channel, want NeverWake", w)
	}
	// Step the DRAM alone until channel 0 issues a column command.
	now := sim.Cycle(0)
	for !sys.CanAccept(addr(0)) {
		now += sim.Cycle(p.ClkDiv)
		sys.Tick(now)
		if now > 10_000 {
			t.Fatal("channel never freed a slot")
		}
	}
	if w, _ := a.NextWake(now); w != now+1 {
		t.Fatalf("NextWake = %d once the channel has room, want %d", w, now+1)
	}
}
