package cache

import (
	"testing"

	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// TestMissFillZeroAllocs pins the allocation-free memory path: in
// steady state a miss, its MSHR merge, its fill with a dirty victim's
// writeback, its waiters and the prefetch train it triggers allocate
// nothing. MSHRs come from the cache's pool with their callbacks bound,
// and the prefetch train fires through the cache's one bound closure.
func TestMissFillZeroAllocs(t *testing.T) {
	cfg := Config{Name: "t", Sets: 16, Ways: 2, Latency: 2, MSHRs: 8, Ports: 4, PrefetchDegree: 2}
	eng, c, _, st := newTestCache(cfg)
	done := 0
	waiter := func(sim.Cycle) { done++ }
	var base memspace.PAddr
	round := func() {
		// A fresh region each round: lines 0 and 1 miss, line 1 again
		// merges into its MSHR, and the store to line 2 repeats the
		// stride, so it trains a prefetch of lines 3 and 4.
		base += 16 * memspace.LineSize
		for i, a := range [...]memspace.PAddr{0, 1, 1, 2} {
			kind := Load
			if i == 3 {
				kind = Store
			}
			if !c.Access(eng.Now(), base+a*memspace.LineSize, kind, waiter) {
				t.Fatal("access rejected")
			}
		}
		for eng.EventsPending() || len(c.mshrs) > 0 {
			eng.Step()
		}
	}
	for range 64 { // every wheel slot alignment reaches its high-water mark
		round()
	}
	if done != 4*64 || st.Get("c.prefetches") == 0 || st.Get("c.writebacks") == 0 {
		t.Fatalf("waiters %d, prefetches %v, writebacks %v: the rig no longer exercises the path",
			done, st.Get("c.prefetches"), st.Get("c.writebacks"))
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("miss/fill round trip allocates %.1f objects per round, want 0", n)
	}
}
