package cache

import (
	"math/rand"
	"testing"

	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// TestTouchMatchesTimedAccess: with no prefetcher, a functional Touch
// sequence leaves the same resident lines and bumps the same counters
// as the same sequence issued one at a time through the timed path —
// the property sampled warm-up and fast-forward rely on.
func TestTouchMatchesTimedAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	addrs := make([]memspace.PAddr, 400)
	kinds := make([]Kind, len(addrs))
	for i := range addrs {
		// 24 distinct lines over a 4-set, 2-way cache: frequent hits,
		// evictions and dirty victims.
		addrs[i] = memspace.PAddr(rng.Intn(24)*memspace.LineSize + rng.Intn(memspace.LineSize))
		if rng.Intn(3) == 0 {
			kinds[i] = Store
		}
	}
	eng, timed, _, tst := newTestCache(smallCfg())
	_, touched, _, fst := newTestCache(smallCfg())
	for i, a := range addrs {
		access(t, eng, timed, a, kinds[i])
		touched.Touch(a, kinds[i])
	}
	for _, name := range []string{"c.accesses", "c.hits", "c.misses", "c.writebacks"} {
		if tst.Get(name) != fst.Get(name) {
			t.Errorf("%s: timed %v, touched %v", name, tst.Get(name), fst.Get(name))
		}
	}
	if fst.Get("c.writebacks") == 0 {
		t.Fatal("sequence produced no dirty victims; the write-back path went untested")
	}
	for l := 0; l < 24; l++ {
		a := memspace.PAddr(l * memspace.LineSize)
		if timed.PresentHere(a) != touched.PresentHere(a) {
			t.Errorf("line %d: timed resident %v, touched resident %v", l, timed.PresentHere(a), touched.PresentHere(a))
		}
	}
}

// TestTouchTrainsPrefetcher: sequential functional misses train the
// stride prefetcher, whose touches install lines without counting as
// demand traffic, and a prefetch touch of a resident line is a no-op.
func TestTouchTrainsPrefetcher(t *testing.T) {
	cfg := smallCfg()
	cfg.Sets = 64
	cfg.PrefetchDegree = 2
	_, c, _, st := newTestCache(cfg)
	// The third miss repeats the stride and prefetches lines 3 and 4.
	for i := 0; i < 3; i++ {
		c.Touch(memspace.PAddr(i*memspace.LineSize), Load)
	}
	if st.Get("c.accesses") != 3 || st.Get("c.misses") != 3 || st.Get("c.prefetches") != 2 {
		t.Fatalf("accesses %v, misses %v, prefetches %v; want 3, 3, 2",
			st.Get("c.accesses"), st.Get("c.misses"), st.Get("c.prefetches"))
	}
	if !c.PresentHere(3*memspace.LineSize) || !c.PresentHere(4*memspace.LineSize) {
		t.Fatal("prefetched lines not installed")
	}
	c.Touch(4*memspace.LineSize, Prefetch)
	if st.Get("c.prefetches") != 2 || st.Get("c.accesses") != 3 {
		t.Fatal("prefetch touch of a resident line changed the counters")
	}
	c.Touch(4*memspace.LineSize, Load)
	if st.Get("c.hits") != 1 {
		t.Fatalf("hits = %v after loading a prefetched line, want 1", st.Get("c.hits"))
	}
}

// TestHierarchyTouchAndQuiet: a functional touch at L1 allocates the
// line at every level without simulating a cycle, and only a timed
// access in flight makes the hierarchy report non-quiet.
func TestHierarchyTouchAndQuiet(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	sys := dram.NewSystem(eng, dram.DDR4_3200(), st, "dram.")
	h := NewHierarchy(eng, SkylakeLike(2, 8<<20), sys, st, "")
	pa := memspace.PAddr(0x40_0000)
	TouchLevel(h.L1[1], pa, Store)
	if !h.L1[1].PresentHere(pa) || !h.L2[1].PresentHere(pa) || !h.LLC.PresentHere(pa) {
		t.Fatal("touch did not allocate at every level")
	}
	if h.L1[0].PresentHere(pa) || eng.Now() != 0 || st.Get("dram.reads") != 0 {
		t.Fatal("touch leaked into another core, advanced time or reached DRAM")
	}
	if !h.Quiet() {
		t.Fatal("hierarchy not quiet after functional touches")
	}
	done := false
	eng.After(1, func(now sim.Cycle) {
		h.L1[0].Access(now, 0x80_0000, Load, func(sim.Cycle) { done = true })
	})
	if _, err := eng.Run(func() bool { return !h.Quiet() || done }); err != nil {
		t.Fatal(err)
	}
	if h.Quiet() {
		t.Fatal("hierarchy quiet with a miss outstanding")
	}
	if _, err := eng.Run(func() bool { return done && h.Quiet() }); err != nil {
		t.Fatal(err)
	}
}

// nonToucher is a Level without a functional path, like the
// accelerator's scratchpad port.
type nonToucher struct{}

func (nonToucher) Access(sim.Cycle, memspace.PAddr, Kind, func(sim.Cycle)) bool {
	panic("cache: a functional touch must not use the timed access path")
}

// TestTouchLevelSkipsNonToucher: TouchLevel treats a level without
// Touch as a sink rather than panicking or falling back to timed
// accesses.
func TestTouchLevelSkipsNonToucher(t *testing.T) {
	for a := memspace.PAddr(0); a < 4*memspace.LineSize; a += memspace.LineSize {
		TouchLevel(nonToucher{}, a, Load)
	}
}
