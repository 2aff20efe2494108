package cache

import (
	"testing"

	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// fixedLevel is a test backend with a constant latency.
type fixedLevel struct {
	eng      *sim.Engine
	latency  sim.Cycle
	accesses int
	reject   bool
}

func (f *fixedLevel) Access(now sim.Cycle, addr memspace.PAddr, kind Kind, onDone func(sim.Cycle)) bool {
	if f.reject {
		return false
	}
	f.accesses++
	if onDone != nil {
		f.eng.After(f.latency, onDone)
	}
	return true
}

func smallCfg() Config {
	return Config{Name: "t", Sets: 4, Ways: 2, Latency: 2, MSHRs: 4, Ports: 4}
}

func newTestCache(cfg Config) (*sim.Engine, *Cache, *fixedLevel, *sim.Stats) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	below := &fixedLevel{eng: eng, latency: 50}
	c := New(eng, cfg, below, st, "c.")
	eng.Register(c)
	return eng, c, below, st
}

// access issues one access on the next cycle and runs until it
// completes, returning the completion cycle.
func access(t *testing.T, eng *sim.Engine, c *Cache, addr memspace.PAddr, kind Kind) sim.Cycle {
	t.Helper()
	var doneAt sim.Cycle
	done := false
	eng.After(1, func(now sim.Cycle) {
		if !c.Access(now, addr, kind, func(n sim.Cycle) { doneAt = n; done = true }) {
			t.Fatalf("access rejected")
		}
	})
	if _, err := eng.Run(func() bool { return done }); err != nil {
		t.Fatalf("run: %v", err)
	}
	return doneAt
}

func TestMissThenHit(t *testing.T) {
	eng, c, below, st := newTestCache(smallCfg())
	start := eng.Now()
	first := access(t, eng, c, 0x100, Load)
	if first-start < 50 {
		t.Fatalf("miss completed in %d cycles, below backend latency", first-start)
	}
	second := access(t, eng, c, 0x100, Load)
	if second-first > 5 {
		t.Fatalf("hit took %d cycles, want ~latency 2", second-first)
	}
	if st.Get("c.hits") != 1 || st.Get("c.misses") != 1 {
		t.Fatalf("hits=%v misses=%v", st.Get("c.hits"), st.Get("c.misses"))
	}
	if below.accesses != 1 {
		t.Fatalf("backend accesses = %d, want 1", below.accesses)
	}
}

func TestSameLineWordsHit(t *testing.T) {
	eng, c, _, st := newTestCache(smallCfg())
	access(t, eng, c, 0x200, Load)
	access(t, eng, c, 0x23C, Load) // same 64B line
	if st.Get("c.hits") != 1 {
		t.Fatalf("hits = %v, want 1", st.Get("c.hits"))
	}
}

func TestMSHRMerging(t *testing.T) {
	eng, c, below, _ := newTestCache(smallCfg())
	done := 0
	eng.After(1, func(now sim.Cycle) {
		for i := 0; i < 3; i++ {
			if !c.Access(now, 0x300, Load, func(sim.Cycle) { done++ }) {
				t.Fatal("rejected")
			}
		}
	})
	if _, err := eng.Run(func() bool { return done == 3 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if below.accesses != 1 {
		t.Fatalf("backend accesses = %d, want 1 (merged)", below.accesses)
	}
}

func TestMSHRLimitRejects(t *testing.T) {
	cfg := smallCfg()
	cfg.MSHRs = 2
	cfg.Ports = 8
	eng, c, _, _ := newTestCache(cfg)
	rejected := false
	eng.After(1, func(now sim.Cycle) {
		for i := 0; i < 3; i++ {
			ok := c.Access(now, memspace.PAddr(0x1000*(i+1)), Load, func(sim.Cycle) {})
			if i == 2 && ok {
				t.Error("third distinct miss should be rejected with 2 MSHRs")
			}
			if i == 2 && !ok {
				rejected = true
			}
		}
	})
	eng.Run(nil)
	if !rejected {
		t.Fatal("no rejection observed")
	}
}

func TestPortLimit(t *testing.T) {
	cfg := smallCfg()
	cfg.Ports = 2
	eng, c, _, _ := newTestCache(cfg)
	var got []bool
	eng.After(1, func(now sim.Cycle) {
		for i := 0; i < 3; i++ {
			got = append(got, c.Access(now, memspace.PAddr(0x40*i), Load, nil))
		}
	})
	eng.Run(nil)
	if !got[0] || !got[1] || got[2] {
		t.Fatalf("port limiting wrong: %v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := smallCfg() // 4 sets x 2 ways
	eng, c, below, st := newTestCache(cfg)
	// Three lines mapping to set 0: line addresses are multiples of
	// sets*linesize = 256.
	a0, a1, a2 := memspace.PAddr(0), memspace.PAddr(256), memspace.PAddr(512)
	access(t, eng, c, a0, Load)
	access(t, eng, c, a1, Load)
	access(t, eng, c, a2, Load) // evicts a0
	if c.PresentHere(a0) {
		t.Fatal("a0 should have been evicted (LRU)")
	}
	if !c.PresentHere(a1) || !c.PresentHere(a2) {
		t.Fatal("a1/a2 should be resident")
	}
	access(t, eng, c, a0, Load) // miss again
	if st.Get("c.misses") != 4 {
		t.Fatalf("misses = %v, want 4", st.Get("c.misses"))
	}
	if below.accesses != 4 {
		t.Fatalf("backend accesses = %d", below.accesses)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	eng, c, below, st := newTestCache(smallCfg())
	access(t, eng, c, 0, Store)
	access(t, eng, c, 256, Load)
	access(t, eng, c, 512, Load) // evicts dirty line 0
	if st.Get("c.writebacks") != 1 {
		t.Fatalf("writebacks = %v, want 1", st.Get("c.writebacks"))
	}
	// 3 fills + 1 writeback.
	if below.accesses != 4 {
		t.Fatalf("backend accesses = %d, want 4", below.accesses)
	}
}

func TestStridePrefetcher(t *testing.T) {
	cfg := smallCfg()
	cfg.Sets = 64
	cfg.PrefetchDegree = 2
	eng, c, _, st := newTestCache(cfg)
	// Sequential line misses train the prefetcher after two strides.
	for i := 0; i < 4; i++ {
		access(t, eng, c, memspace.PAddr(i*memspace.LineSize), Load)
	}
	if st.Get("c.prefetches") == 0 {
		t.Fatal("prefetcher never fired on a streaming pattern")
	}
	// The prefetched line should now hit.
	pre := st.Get("c.hits")
	access(t, eng, c, memspace.PAddr(5*memspace.LineSize), Load)
	access(t, eng, c, memspace.PAddr(4*memspace.LineSize), Load)
	if st.Get("c.hits") == pre {
		t.Fatal("no hits on prefetched lines")
	}
}

func TestHierarchyEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	sys := dram.NewSystem(eng, dram.DDR4_3200(), st, "dram.")
	h := NewHierarchy(eng, SkylakeLike(2, 8<<20), sys, st, "")
	done := 0
	eng.After(1, func(now sim.Cycle) {
		if !h.L1[0].Access(now, 0x1000, Load, func(sim.Cycle) { done++ }) {
			t.Error("access rejected")
		}
	})
	if _, err := eng.Run(func() bool { return done == 1 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The line must now be present at every level.
	if !h.L1[0].PresentHere(0x1000) || !h.L2[0].PresentHere(0x1000) || !h.LLC.PresentHere(0x1000) {
		t.Fatal("fill did not propagate up the hierarchy")
	}
	if !h.Present(0x1000) {
		t.Fatal("hierarchy Present wrong")
	}
	// Core 1's private caches are unaffected.
	if h.L1[1].PresentHere(0x1000) {
		t.Fatal("other core's L1 polluted")
	}
	if st.Get("dram.reads") == 0 {
		t.Fatal("no DRAM read recorded")
	}
}

func TestHierarchyMissLatencyOrdering(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	sys := dram.NewSystem(eng, dram.DDR4_3200(), st, "dram.")
	h := NewHierarchy(eng, SkylakeLike(1, 8<<20), sys, st, "")
	var missDone, hitDone sim.Cycle
	phase := 0
	eng.After(1, func(now sim.Cycle) {
		h.L1[0].Access(now, 0x2000, Load, func(n sim.Cycle) { missDone = n; phase = 1 })
	})
	if _, err := eng.Run(func() bool { return phase == 1 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	start := eng.Now()
	eng.After(1, func(now sim.Cycle) {
		h.L1[0].Access(now, 0x2000, Load, func(n sim.Cycle) { hitDone = n; phase = 2 })
	})
	if _, err := eng.Run(func() bool { return phase == 2 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	missLat := missDone - 1
	hitLat := hitDone - start - 1
	if missLat < 100 {
		t.Fatalf("full miss latency %d too small", missLat)
	}
	if hitLat > 8 {
		t.Fatalf("L1 hit latency %d too large", hitLat)
	}
}

func TestMemAdapterOverflow(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 10_000_000
	st := sim.NewStats()
	sys := dram.NewSystem(eng, dram.DDR4_3200(), st, "dram.")
	a := NewMemAdapter(eng, sys)
	a.MaxPending = 8
	// Flood one channel far beyond its 32-entry buffer.
	accepted := 0
	for i := 0; i < 32+8; i++ {
		if a.Access(1, memspace.PAddr(i*128*memspace.LineSize), Load, nil) {
			accepted++
		}
	}
	if accepted != 40 {
		t.Fatalf("accepted = %d, want 40 (32 buffer + 8 overflow)", accepted)
	}
	if a.Access(1, 0, Load, nil) {
		t.Fatal("access beyond overflow accepted")
	}
	// Everything drains eventually.
	if _, err := eng.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("dram.reads") != 40 {
		t.Fatalf("dram.reads = %v, want 40", st.Get("dram.reads"))
	}
}

func TestConfigSize(t *testing.T) {
	cfg := SkylakeLike(4, 10<<20)
	if cfg.L1.SizeBytes() != 32<<10 {
		t.Fatalf("L1 size = %d", cfg.L1.SizeBytes())
	}
	if cfg.L2.SizeBytes() != 256<<10 {
		t.Fatalf("L2 size = %d", cfg.L2.SizeBytes())
	}
	if cfg.LLC.SizeBytes() != 10<<20 {
		t.Fatalf("LLC size = %d", cfg.LLC.SizeBytes())
	}
}
