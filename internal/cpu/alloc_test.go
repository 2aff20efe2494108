package cpu

import (
	"testing"

	"dx100/internal/cache"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// fixedL1 answers every access after a fixed latency, handing the
// core's own completion to the engine: it adds no allocation of its
// own to what it measures.
type fixedL1 struct {
	eng     *sim.Engine
	latency sim.Cycle
}

func (f *fixedL1) Access(now sim.Cycle, addr memspace.PAddr, kind cache.Kind, onDone func(sim.Cycle)) bool {
	f.eng.After(f.latency, onDone)
	return true
}

// TestCoreZeroAllocsSteadyState pins that a core running loads,
// stores, ALU ops and atomics allocates nothing per cycle: every
// completion is bound once, to its ROB slot or (stores) to the core.
func TestCoreZeroAllocsSteadyState(t *testing.T) {
	eng := sim.NewEngine()
	st := sim.NewStats()
	core := NewCore(eng, SkylakeLike(), &fixedL1{eng: eng, latency: 30}, ident, st, "core.")
	pattern := [...]MicroOp{
		{Kind: Load, Addr: 0x1000},
		{Kind: ALU, Dep1: 1, Lat: 3},
		{Kind: Load, Addr: 0x2000, Dep1: 1},
		{Kind: Store, Addr: 0x3000, Dep1: 1},
		{Kind: ALU},
		{Kind: Load, Addr: 0x4000},
		{Kind: ALU, Dep1: 1, Dep2: 4},
		{Kind: Atomic, Addr: 0x5000},
	}
	i := 0
	core.Run(funcStream(func() (MicroOp, bool) {
		op := pattern[i%len(pattern)]
		i++
		return op, true
	}))
	steps := func() {
		for range 64 {
			eng.Step()
		}
	}
	for range 64 {
		steps()
	}
	for _, name := range []string{"core.loads", "core.stores", "core.atomics"} {
		if st.Get(name) == 0 {
			t.Fatalf("%s = 0: the rig no longer exercises every completion", name)
		}
	}
	if n := testing.AllocsPerRun(200, steps); n != 0 {
		t.Fatalf("core allocates %.1f objects per 64 cycles, want 0", n)
	}
}
