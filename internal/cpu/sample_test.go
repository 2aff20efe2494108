package cpu

import (
	"testing"

	"dx100/internal/cache"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// touchStub is memStub plus the functional path: it counts the touches
// a core makes while executing functionally.
type touchStub struct {
	memStub
	touches map[cache.Kind]int
}

func (m *touchStub) Touch(_ memspace.PAddr, k cache.Kind) { m.touches[k]++ }

// mixedOps is a program of every non-barrier kind; *effects counts the
// Effect ops that ran.
func mixedOps(n int, effects *int) []MicroOp {
	ops := make([]MicroOp, n)
	for i := range ops {
		switch {
		case i%11 == 4:
			ops[i] = MicroOp{Kind: Effect, Emit: func(sim.Cycle) { *effects++ }}
		case i%13 == 6:
			ops[i] = MicroOp{Kind: Atomic, Addr: memspace.VAddr(i * 8)}
		case i%5 == 0:
			ops[i] = MicroOp{Kind: Load, Addr: memspace.VAddr(i * 64)}
		case i%5 == 1:
			ops[i] = MicroOp{Kind: Store, Addr: memspace.VAddr(i * 64), Dep1: 1}
		default:
			ops[i] = MicroOp{Kind: ALU, Dep1: 1, Weight: uint16(i % 3)}
		}
	}
	return ops
}

func newTouchCore(latency sim.Cycle, ops []MicroOp) (*sim.Engine, *Core, *touchStub, *sim.Stats) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	mem := &touchStub{memStub: memStub{eng: eng, latency: latency}, touches: map[cache.Kind]int{}}
	c := NewCore(eng, SkylakeLike(), mem, ident, st, "core.")
	c.Run(&SliceStream{Ops: ops})
	return eng, c, mem, st
}

// noDrain is a drain hook with no accelerator behind it.
func noDrain() bool { return false }

// quiesce pauses the core and runs the engine until the handoff point.
func quiesce(t *testing.T, eng *sim.Engine, c *Core) {
	t.Helper()
	c.Pause()
	if _, err := eng.Run(func() bool { return !eng.EventsPending() && c.Quiesced() }); err != nil {
		t.Fatal(err)
	}
}

// TestFunctionalPhaseCountsLikeDetail: a run handed from detail to a
// functional phase and back counts the same instructions, loads,
// stores, atomics and effects as a run in full detail.
func TestFunctionalPhaseCountsLikeDetail(t *testing.T) {
	var fullEffects, effects int
	_, full, _ := runCore(t, SkylakeLike(), 20, mixedOps(600, &fullEffects))

	eng, c, mem, st := newTouchCore(20, mixedOps(600, &effects))
	if _, err := eng.RunUntil(80, c.Done); err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, c)
	if w := c.RunFunctional(200, eng.Now(), noDrain); w < 200 || !c.Drained() || c.Done() {
		t.Fatalf("functional phase ran %d weight, drained %v, done %v; want 200, true, false", w, c.Drained(), c.Done())
	}
	c.Resume()
	if _, err := eng.Run(c.Done); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.instructions", "core.loads", "core.stores", "core.atomics"} {
		if full.Get(name) != st.Get(name) {
			t.Errorf("%s: full detail %v, with a functional phase %v", name, full.Get(name), st.Get(name))
		}
	}
	if effects != fullEffects {
		t.Errorf("effects ran %d times, want %d", effects, fullEffects)
	}
	if mem.touches[cache.Load] == 0 || mem.touches[cache.Store] == 0 {
		t.Errorf("functional phase touched %v; want loads and stores", mem.touches)
	}
}

// TestDrainWindowBlocksOnBarrier: a barrier parked at the head of a
// paused window blocks the drain until its predicate holds; then the
// store waiting on it is applied, and the rest of the window and
// stream run functionally to completion.
func TestDrainWindowBlocksOnBarrier(t *testing.T) {
	release := false
	ops := []MicroOp{
		{Kind: Barrier, Ready: func() bool { return release }},
		{Kind: Store, Addr: 8, Dep1: 1},
	}
	for i := 0; i < 30; i++ {
		ops = append(ops, MicroOp{Kind: Load, Addr: memspace.VAddr(i * 64)}, MicroOp{Kind: ALU, Dep1: 1})
	}
	eng, c, mem, st := newTouchCore(10, ops)
	if _, err := eng.RunUntil(40, nil); err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, c)
	if w, blocked := c.drainWindow(eng.Now()); !blocked || w != 0 || c.Drained() {
		t.Fatalf("drain past an unready barrier: weight %d, blocked %v, drained %v", w, blocked, c.Drained())
	}
	release = true
	if _, blocked := c.drainWindow(eng.Now()); blocked || !c.Drained() {
		t.Fatal("drain still blocked after the barrier released")
	}
	if mem.touches[cache.Store] != 1 {
		t.Fatalf("store parked behind the barrier touched %d times, want 1", mem.touches[cache.Store])
	}
	c.RunFunctional(len(ops), eng.Now(), noDrain)
	if !c.Done() || st.Get("core.instructions") != float64(len(ops)) {
		t.Fatalf("done %v, instructions %v; want true, %d", c.Done(), st.Get("core.instructions"), len(ops))
	}
}

// TestFuncUnget: an op handed back re-emerges first, and only one op
// can be held at a time. Past the end of the stream funcNext reports
// false and leaves the caller's op as it was.
func TestFuncUnget(t *testing.T) {
	_, c, _, _ := newTouchCore(1, []MicroOp{{Kind: ALU, Lat: 1}, {Kind: ALU, Lat: 2}})
	var op, again MicroOp
	c.funcNext(&op)
	c.funcUnget(op)
	if !c.funcNext(&again) || again.Lat != 1 {
		t.Fatalf("funcNext after funcUnget = %+v, want the handed-back op", again)
	}
	if !c.funcNext(&again) || again.Lat != 2 {
		t.Fatalf("funcNext = %+v, want the second op", again)
	}
	if c.funcNext(&again) || again.Lat != 2 {
		t.Fatalf("funcNext past the end reported an op or overwrote the caller's: %+v", again)
	}
	c.funcUnget(op)
	defer func() {
		if recover() == nil {
			t.Fatal("second funcUnget with an op pending did not panic")
		}
	}()
	c.funcUnget(op)
}

// TestDrainWindowPanicsInFlight: draining before the machine is
// quiescent is a contract violation, not a silent state loss.
func TestDrainWindowPanicsInFlight(t *testing.T) {
	eng, c, _, _ := newTouchCore(500, []MicroOp{{Kind: Load, Addr: 64}})
	if _, err := eng.RunUntil(10, nil); err != nil {
		t.Fatal(err)
	}
	c.Pause()
	if c.Quiesced() {
		t.Fatal("core quiesced with a load in flight")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("functional drain with an issued entry did not panic")
		}
	}()
	c.RunFunctional(1, eng.Now(), noDrain)
}
