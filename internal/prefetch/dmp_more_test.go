package prefetch

import (
	"slices"
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

// recorder is a level that logs every access and touch it receives,
// timed or functional, in order.
type recorder struct{ log []record }

type record struct {
	addr memspace.PAddr
	kind cache.Kind
}

func (r *recorder) Access(_ sim.Cycle, addr memspace.PAddr, kind cache.Kind, _ func(sim.Cycle)) bool {
	r.log = append(r.log, record{addr, kind})
	return true
}

func (r *recorder) Touch(addr memspace.PAddr, kind cache.Kind) {
	r.log = append(r.log, record{addr, kind})
}

// TestDMPTouchMatchesAccess feeds one access stream to two DMPs over
// recording levels, one through the timed Access and one through the
// functional Touch. The stream walks the index array forward, revisits
// inside the suppression window, jumps back past it, strays outside
// every pattern, stores, and runs into the array's end. Both must
// forward the same demand stream, prefetch the same targets in the same
// order, and count the same dmp.issued.
func TestDMPTouchMatchesAccess(t *testing.T) {
	sp := memspace.New()
	arrA := words(sp, 8, "A", 1<<12)
	arrB := words(sp, 4, "B", 512)
	arrC := words(sp, 4, "C", 256)
	for i := 0; i < 512; i++ {
		arrB.Set(i, uint64((i*389)%(1<<12)))
	}
	for i := 0; i < 256; i++ {
		arrC.Set(i, uint64((i*7)%512))
	}
	type access struct {
		arr  *memspace.Words
		elem int
		kind cache.Kind
	}
	var accesses []access
	for i := 0; i < 512; i += 3 {
		accesses = append(accesses, access{&arrB, i, cache.Load})
		if i%30 == 0 {
			accesses = append(accesses,
				access{&arrB, max(i-2, 0), cache.Load}, // inside the suppression window
				access{&arrB, i, cache.Store},
				access{&arrC, i / 2, cache.Load},
				access{&arrA, i % 64, cache.Load}) // in no index stream
		}
		if i == 300 {
			accesses = append(accesses, access{&arrB, 100, cache.Load}) // far behind: retriggers
		}
	}
	run := func(touch bool) (demand, pf *recorder, issued float64) {
		st := sim.NewStats()
		demand, pf = &recorder{}, &recorder{}
		d := New(DefaultConfig(), sp, demand, pf, st, "dmp.")
		d.Register(Pattern{IndexBase: arrB.Base(), IndexCount: 512, IndexSize: 4, TargetBase: arrA.Base(), TargetSize: 8})
		d.Register(Pattern{IndexBase: arrC.Base(), IndexCount: 256, IndexSize: 4, TargetBase: arrB.Base(), TargetSize: 4})
		for _, a := range accesses {
			pa := sp.Translate(a.arr.Addr(a.elem))
			if touch {
				d.Touch(pa, a.kind)
			} else {
				d.Access(sim.Cycle(len(demand.log)), pa, a.kind, nil)
			}
		}
		return demand, pf, st.Get("dmp.issued")
	}
	timedDemand, timedPF, timedIssued := run(false)
	funcDemand, funcPF, funcIssued := run(true)
	if !slices.Equal(timedDemand.log, funcDemand.log) {
		t.Error("Touch forwarded a different demand stream from Access")
	}
	if !slices.Equal(timedPF.log, funcPF.log) {
		t.Errorf("Touch prefetched %d lines, Access %d; the sequences differ", len(funcPF.log), len(timedPF.log))
	}
	if timedIssued != funcIssued || timedIssued != float64(len(timedPF.log)) {
		t.Errorf("dmp.issued: Access %v, Touch %v, prefetches recorded %d", timedIssued, funcIssued, len(timedPF.log))
	}
	// The stream must exercise what it claims: suppression (fewer
	// triggers than index loads) and both patterns.
	loads := 0
	for _, a := range accesses {
		if a.kind == cache.Load && a.arr != &arrA {
			loads++
		}
	}
	if n := len(timedPF.log); n == 0 || n >= loads*DefaultConfig().Degree {
		t.Errorf("%d prefetches for %d index loads: no trigger was suppressed", n, loads)
	}
	bLo := sp.Translate(arrB.Base())
	intoB := 0
	for _, r := range timedPF.log {
		if r.addr >= bLo && r.addr < bLo+512*4 {
			intoB++
		}
	}
	if intoB == 0 || intoB == len(timedPF.log) {
		t.Errorf("%d of %d prefetches target B: the stream does not drive both patterns", intoB, len(timedPF.log))
	}
}
