package cache

import (
	"testing"

	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// TestBlockedQueueDrains: accesses rejected by the level below are
// queued and drain in order without per-cycle event storms.
func TestBlockedQueueDrains(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	below := &fixedLevel{eng: eng, latency: 10, reject: true}
	cfg := smallCfg()
	cfg.MSHRs = 8
	c := New(eng, cfg, below, st, "c.")
	eng.Register(c)
	done := 0
	eng.After(1, func(now sim.Cycle) {
		for i := 0; i < 4; i++ {
			if !c.Access(now, memspace.PAddr(0x1000*(i+1)), Load, func(sim.Cycle) { done++ }) {
				t.Error("access rejected with free MSHRs")
			}
		}
	})
	// Let the misses pile into the blocked queue, then open the gate.
	eng.Schedule(100, func(sim.Cycle) { below.reject = false })
	if _, err := eng.Run(func() bool { return done == 4 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if below.accesses != 4 {
		t.Fatalf("backend accesses = %d", below.accesses)
	}
}

// TestPrefetchDroppedWhenSaturated: prefetches never steal the last
// MSHRs from demand misses.
func TestPrefetchesAreBestEffort(t *testing.T) {
	cfg := smallCfg()
	cfg.Sets = 64
	cfg.MSHRs = 2
	cfg.PrefetchDegree = 4
	eng, c, _, st := func() (*sim.Engine, *Cache, *fixedLevel, *sim.Stats) {
		eng := sim.NewEngine()
		eng.MaxCycles = 1_000_000
		st := sim.NewStats()
		below := &fixedLevel{eng: eng, latency: 200}
		c := New(eng, cfg, below, st, "c.")
		eng.Register(c)
		return eng, c, below, st
	}()
	// Stream of sequential misses: the prefetcher trains but most
	// prefetches find the two MSHRs occupied and are dropped silently.
	done := 0
	issued := 0
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for issued < 16 {
			if !c.Access(now, memspace.PAddr(issued*memspace.LineSize), Load, func(sim.Cycle) { done++ }) {
				return true
			}
			issued++
		}
		return done != 16
	}))
	if _, err := eng.Run(func() bool { return done == 16 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("c.misses") != 16 {
		t.Fatalf("misses = %v", st.Get("c.misses"))
	}
}

// TestHierarchyWritebackPath: dirty lines evicted from L1 propagate
// writes downstream all the way to DRAM.
func TestHierarchyWritebackPath(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 10_000_000
	st := sim.NewStats()
	sys := dram.NewSystem(eng, dram.DDR4_3200(), st, "dram.")
	h := NewHierarchy(eng, SkylakeLike(1, 8<<20), sys, st, "")
	// Dirty far more lines than L1 holds: evictions must write back.
	done := 0
	issued := 0
	lines := 4096
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for issued < lines {
			if !h.L1[0].Access(now, memspace.PAddr(issued*memspace.LineSize), Store, func(sim.Cycle) { done++ }) {
				return true
			}
			issued++
		}
		return done != lines
	}))
	if _, err := eng.Run(func() bool { return done == lines }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := eng.Run(nil); err != nil { // drain writebacks
		t.Fatalf("drain: %v", err)
	}
	if st.Get("l1d.writebacks") == 0 {
		t.Fatal("no L1 writebacks despite heavy dirty traffic")
	}
}
