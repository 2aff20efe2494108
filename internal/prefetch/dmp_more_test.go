package prefetch

import (
	"testing"

	"dx100/internal/cache"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// access drives one wrapped access through the DMP at engine time and
// waits for its completion callback.
func access(t *testing.T, eng *sim.Engine, d *DMP, pa memspace.PAddr, kind cache.Kind) {
	t.Helper()
	done := false
	eng.After(1, func(now sim.Cycle) {
		if !d.Access(now, pa, kind, func(sim.Cycle) { done = true }) {
			t.Error("access rejected")
		}
	})
	if _, err := eng.Run(func() bool { return done }); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestDMPRetriggerSuppressionWindow(t *testing.T) {
	eng, st, sp, _, d, _, arrB := setup(t)
	elem := func(i int) memspace.PAddr { return sp.Translate(arrB.Addr(i)) }

	access(t, eng, d, elem(5), cache.Load)
	first := st.Get("dmp.issued")
	if first != float64(DefaultConfig().Degree) {
		t.Fatalf("first trigger issued %v prefetches, want Degree=%d", first, DefaultConfig().Degree)
	}
	// Revisiting the same element, or one just behind it, falls inside
	// the 2*Distance suppression window and must not re-trigger.
	access(t, eng, d, elem(5), cache.Load)
	access(t, eng, d, elem(3), cache.Load)
	if got := st.Get("dmp.issued"); got != first {
		t.Fatalf("suppressed revisit issued prefetches: %v -> %v", first, got)
	}
	// Moving forward past the trigger element starts a new window.
	access(t, eng, d, elem(40), cache.Load)
	if got := st.Get("dmp.issued"); got <= first {
		t.Fatalf("forward progress did not re-trigger: %v", got)
	}
}

func TestDMPBackwardJumpOutsideWindowRetriggers(t *testing.T) {
	eng, st, sp, _, d, _, arrB := setup(t)
	elem := func(i int) memspace.PAddr { return sp.Translate(arrB.Addr(i)) }
	access(t, eng, d, elem(1000), cache.Load)
	first := st.Get("dmp.issued")
	// 900 is more than 2*Distance behind 1000: a genuine new traversal,
	// not a re-read of the current neighborhood.
	access(t, eng, d, elem(900), cache.Load)
	if got := st.Get("dmp.issued"); got <= first {
		t.Fatalf("far backward jump suppressed: %v -> %v", first, got)
	}
}

func TestDMPDegreeClampAtArrayEnd(t *testing.T) {
	eng, st, sp, _, d, _, arrB := setup(t)
	cfg := DefaultConfig()
	count := 4096 // arrB length in setup
	elem := func(i int) memspace.PAddr { return sp.Translate(arrB.Addr(i)) }

	// Two elements short of (count - Distance): only two targets remain.
	access(t, eng, d, elem(count-cfg.Distance-2), cache.Load)
	if got := st.Get("dmp.issued"); got != 2 {
		t.Fatalf("clamped trigger issued %v prefetches, want 2", got)
	}
	// The last element is forward progress (a new trigger) but leaves
	// nothing Distance ahead, so the degree clamps all the way to zero.
	access(t, eng, d, elem(count-1), cache.Load)
	if got := st.Get("dmp.issued"); got != 2 {
		t.Fatalf("trigger at array end issued %v extra prefetches", got-2)
	}
}

func TestDMPStoreDoesNotTrigger(t *testing.T) {
	eng, st, sp, _, d, _, arrB := setup(t)
	access(t, eng, d, sp.Translate(arrB.Base()), cache.Store)
	if got := st.Get("dmp.issued"); got != 0 {
		t.Fatalf("store access triggered %v prefetches", got)
	}
}
