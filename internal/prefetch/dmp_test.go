package prefetch

import (
	"testing"

	"dx100/internal/cache"
	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// words allocates n size-byte words under name and returns their view.
func words(sp *memspace.Space, size int, name string, n int) memspace.Words {
	w, err := sp.Words(sp.Alloc(name, uint64(size*n)).Base, size, n)
	if err != nil {
		panic(err)
	}
	return w
}

func setup(t *testing.T) (*sim.Engine, *sim.Stats, *memspace.Space, *cache.Hierarchy, *DMP,
	memspace.Words, memspace.Words) {
	t.Helper()
	eng := sim.NewEngine()
	eng.MaxCycles = 5_000_000
	st := sim.NewStats()
	sp := memspace.New()
	mem := dram.NewSystem(eng, dram.DDR4_3200(), st, "dram.")
	h := cache.NewHierarchy(eng, cache.SkylakeLike(1, 8<<20), mem, st, "")
	arrA := words(sp, 4, "A", 1<<16)
	arrB := words(sp, 4, "B", 4096)
	for i := 0; i < 4096; i++ {
		arrB.Set(i, uint64((i*977)%(1<<16)))
	}
	d := New(DefaultConfig(), sp, h.L2[0], h.L2[0], st, "dmp.")
	d.Register(Pattern{
		IndexBase: arrB.Base(), IndexCount: 4096, IndexSize: 4,
		TargetBase: arrA.Base(), TargetSize: 4,
	})
	return eng, st, sp, h, d, arrA, arrB
}

func TestDMPPrefetchesIndirectTargets(t *testing.T) {
	eng, st, sp, h, d, arrA, arrB := setup(t)
	// Simulate the L1 miss stream of a gather: index loads flow
	// through the DMP wrapper.
	done := 0
	issued := 0
	feeder := func(now sim.Cycle) bool {
		for issued < 64 {
			pa := sp.Translate(arrB.Addr(issued * 16)) // one access per line
			if !d.Access(now, pa, cache.Load, func(sim.Cycle) { done++ }) {
				return true
			}
			issued++
		}
		return done < 64
	}
	eng.Register(sim.TickerFunc(feeder))
	if _, err := eng.Run(func() bool { return done == 64 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("dmp.issued") == 0 {
		t.Fatal("DMP issued no prefetches")
	}
	// Let prefetches land.
	if _, err := eng.Run(nil); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Some future indirect targets must now be resident.
	hits := 0
	for i := 16; i < 64; i++ {
		idx := int(arrB.Get(i * 16))
		if h.L2[0].PresentHere(sp.Translate(arrA.Addr(idx))) || h.LLC.PresentHere(sp.Translate(arrA.Addr(idx))) {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no indirect targets were prefetched into the hierarchy")
	}
}

func TestDMPForwardsAccesses(t *testing.T) {
	eng, st, sp, _, d, _, arrB := setup(t)
	done := false
	eng.After(1, func(now sim.Cycle) {
		if !d.Access(now, sp.Translate(arrB.Base()), cache.Load, func(sim.Cycle) { done = true }) {
			t.Error("access rejected")
		}
	})
	if _, err := eng.Run(func() bool { return done }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("l2.accesses") == 0 {
		t.Fatal("access not forwarded to L2")
	}
}

func TestDMPNoTriggerOutsidePattern(t *testing.T) {
	eng, st, sp, _, d, arrA, _ := setup(t)
	done := false
	eng.After(1, func(now sim.Cycle) {
		// Access the *target* array: not an index stream.
		d.Access(now, sp.Translate(arrA.Base()), cache.Load, func(sim.Cycle) { done = true })
	})
	if _, err := eng.Run(func() bool { return done }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("dmp.issued") != 0 {
		t.Fatalf("prefetches issued for non-index access: %v", st.Get("dmp.issued"))
	}
}
