package cpu

import (
	"testing"

	"dx100/internal/cache"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// memStub is an L1 substitute with fixed latency and unlimited
// capacity.
type memStub struct {
	eng     *sim.Engine
	latency sim.Cycle
	count   int
	maxOut  int
	out     int
}

func (m *memStub) Access(now sim.Cycle, addr memspace.PAddr, kind cache.Kind, onDone func(sim.Cycle)) bool {
	m.count++
	m.out++
	if m.out > m.maxOut {
		m.maxOut = m.out
	}
	if onDone != nil {
		m.eng.After(m.latency, func(n sim.Cycle) { m.out--; onDone(n) })
	} else {
		m.out--
	}
	return true
}

func ident(v memspace.VAddr) memspace.PAddr { return memspace.PAddr(v) }

func runCore(t *testing.T, cfg Config, latency sim.Cycle, ops []MicroOp) (sim.Cycle, *sim.Stats, *memStub) {
	t.Helper()
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	mem := &memStub{eng: eng, latency: latency}
	core := NewCore(eng, cfg, mem, ident, st, "core.")
	core.Run(&SliceStream{Ops: ops})
	end, err := eng.Run(func() bool { return core.Done() })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return end, st, mem
}

func TestALUChainRetires(t *testing.T) {
	ops := make([]MicroOp, 100)
	for i := range ops {
		ops[i] = MicroOp{Kind: ALU, Dep1: 1}
	}
	ops[0].Dep1 = 0
	end, st, _ := runCore(t, SkylakeLike(), 10, ops)
	if st.Get("core.instructions") != 100 {
		t.Fatalf("instructions = %v", st.Get("core.instructions"))
	}
	// A chain of 100 dependent 1-cycle ops takes at least 100 cycles.
	if end < 100 {
		t.Fatalf("end = %d, want >= 100", end)
	}
}

func TestIndependentALUWidth(t *testing.T) {
	// 800 independent ALU ops on an 8-wide core: ~100 cycles, far less
	// than the serial 800.
	ops := make([]MicroOp, 800)
	for i := range ops {
		ops[i] = MicroOp{Kind: ALU}
	}
	end, _, _ := runCore(t, SkylakeLike(), 10, ops)
	if end > 250 {
		t.Fatalf("end = %d, want ~100 for 8-wide issue", end)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	n := 64
	ops := make([]MicroOp, n)
	for i := range ops {
		ops[i] = MicroOp{Kind: Load, Addr: memspace.VAddr(i * 64)}
	}
	end, _, mem := runCore(t, SkylakeLike(), 200, ops)
	// Serial would be 64*200 = 12800; overlapped should be near 200.
	if end > 1200 {
		t.Fatalf("end = %d, loads did not overlap", end)
	}
	if mem.maxOut < 16 {
		t.Fatalf("max outstanding = %d, want >= 16", mem.maxOut)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	n := 16
	ops := make([]MicroOp, n)
	for i := range ops {
		ops[i] = MicroOp{Kind: Load, Addr: memspace.VAddr(i * 64), Dep1: 1}
	}
	ops[0].Dep1 = 0
	end, _, mem := runCore(t, SkylakeLike(), 200, ops)
	if end < sim.Cycle(n*200) {
		t.Fatalf("end = %d, want >= %d (serialized chain)", end, n*200)
	}
	if mem.maxOut != 1 {
		t.Fatalf("max outstanding = %d, want 1", mem.maxOut)
	}
}

func TestLQBoundsMLP(t *testing.T) {
	cfg := SkylakeLike()
	cfg.LQ = 4
	n := 64
	ops := make([]MicroOp, n)
	for i := range ops {
		ops[i] = MicroOp{Kind: Load, Addr: memspace.VAddr(i * 64)}
	}
	_, _, mem := runCore(t, cfg, 100, ops)
	if mem.maxOut > 4 {
		t.Fatalf("max outstanding = %d exceeds LQ 4", mem.maxOut)
	}
}

func TestROBBoundsWindow(t *testing.T) {
	cfg := SkylakeLike()
	cfg.ROB = 8
	cfg.LQ = 64
	// Each iteration: a slow load then 3 ALU ops. A tiny ROB cannot
	// look far ahead, serializing the loads.
	var ops []MicroOp
	for i := 0; i < 16; i++ {
		ops = append(ops,
			MicroOp{Kind: Load, Addr: memspace.VAddr(i * 64)},
			MicroOp{Kind: ALU, Dep1: 1}, MicroOp{Kind: ALU, Dep1: 1}, MicroOp{Kind: ALU, Dep1: 1})
	}
	_, _, memSmall := runCore(t, cfg, 100, ops)
	cfg.ROB = 224
	_, _, memBig := runCore(t, cfg, 100, append([]MicroOp(nil), ops...))
	if memSmall.maxOut >= memBig.maxOut {
		t.Fatalf("small ROB MLP %d should be below big ROB MLP %d", memSmall.maxOut, memBig.maxOut)
	}
}

func TestStoresDrainBeforeDone(t *testing.T) {
	ops := []MicroOp{{Kind: Store, Addr: 0x40}}
	end, st, _ := runCore(t, SkylakeLike(), 300, ops)
	if end < 300 {
		t.Fatalf("core reported done before store drained: %d", end)
	}
	if st.Get("core.stores") != 1 {
		t.Fatalf("stores = %v", st.Get("core.stores"))
	}
}

func TestAtomicsSerialize(t *testing.T) {
	n := 16
	plain := make([]MicroOp, n)
	atomic := make([]MicroOp, n)
	for i := range plain {
		plain[i] = MicroOp{Kind: Store, Addr: memspace.VAddr(i * 64)}
		atomic[i] = MicroOp{Kind: Atomic, Addr: memspace.VAddr(i * 64)}
	}
	endPlain, _, _ := runCore(t, SkylakeLike(), 50, plain)
	endAtomic, stA, _ := runCore(t, SkylakeLike(), 50, atomic)
	if float64(endAtomic) < 3*float64(endPlain) {
		t.Fatalf("atomics %d vs stores %d: want >= 3x serialization", endAtomic, endPlain)
	}
	if stA.Get("core.atomics") != float64(n) {
		t.Fatalf("atomics = %v", stA.Get("core.atomics"))
	}
}

func TestBarrierWaits(t *testing.T) {
	release := false
	ops := []MicroOp{
		{Kind: ALU},
		{Kind: Barrier, Ready: func() bool { return release }},
		{Kind: ALU},
	}
	eng := sim.NewEngine()
	eng.MaxCycles = 100_000
	st := sim.NewStats()
	mem := &memStub{eng: eng, latency: 10}
	core := NewCore(eng, SkylakeLike(), mem, ident, st, "core.")
	core.Run(&SliceStream{Ops: ops})
	eng.Schedule(500, func(sim.Cycle) { release = true })
	end, err := eng.Run(func() bool { return core.Done() })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if end < 500 {
		t.Fatalf("end = %d, want >= 500 (barrier)", end)
	}
	if st.Get("core.spin_cycles") == 0 {
		t.Fatal("no spin cycles recorded")
	}
}

func TestEffectRuns(t *testing.T) {
	fired := 0
	ops := []MicroOp{{Kind: Effect, Emit: func(sim.Cycle) { fired++ }, Weight: 3}}
	_, st, _ := runCore(t, SkylakeLike(), 10, ops)
	if fired != 1 {
		t.Fatalf("effect fired %d times", fired)
	}
	if st.Get("core.instructions") != 3 {
		t.Fatalf("instructions = %v, want weight 3", st.Get("core.instructions"))
	}
}

func TestWeightConsumesFetchBandwidth(t *testing.T) {
	// 100 weight-8 ALU ops on an 8-wide core: at most one per cycle.
	ops := make([]MicroOp, 100)
	for i := range ops {
		ops[i] = MicroOp{Kind: ALU, Weight: 8}
	}
	end, st, _ := runCore(t, SkylakeLike(), 10, ops)
	if st.Get("core.instructions") != 800 {
		t.Fatalf("instructions = %v", st.Get("core.instructions"))
	}
	if end < 100 {
		t.Fatalf("end = %d, want >= 100", end)
	}
}

func TestDepOnRetiredOpIsComplete(t *testing.T) {
	// A dependence far in the past (already retired) must not block.
	ops := make([]MicroOp, 500)
	for i := range ops {
		ops[i] = MicroOp{Kind: ALU}
		if i >= 400 {
			ops[i].Dep1 = 400 // op i-400, long retired
		}
	}
	_, st, _ := runCore(t, SkylakeLike(), 10, ops)
	if st.Get("core.instructions") != 500 {
		t.Fatalf("instructions = %v", st.Get("core.instructions"))
	}
}

// funcStream adapts a generator function to the Stream interface.
type funcStream func() (MicroOp, bool)

// Next implements Stream.
func (f funcStream) Next(op *MicroOp) bool {
	o, ok := f()
	if ok {
		*op = o
	}
	return ok
}

func TestGatherChainMLPShape(t *testing.T) {
	// The paper's central claim about the baseline (§2.2): indirect
	// chains (index load -> address calc -> indirect load) limit MLP
	// well below the LQ size. Verify the shape: chained gather has
	// much lower outstanding-access peaks than independent loads.
	var chain []MicroOp
	for i := 0; i < 200; i++ {
		chain = append(chain,
			MicroOp{Kind: Load, Addr: memspace.VAddr(i * 4)},                      // B[i]
			MicroOp{Kind: ALU, Dep1: 1},                                           // addr calc
			MicroOp{Kind: Load, Addr: memspace.VAddr(0x100000 + i*4096), Dep1: 1}, // A[B[i]]
			MicroOp{Kind: ALU, Dep1: 1},                                           // use
		)
	}
	_, _, mem := runCore(t, SkylakeLike(), 150, chain)
	if mem.maxOut >= 72 {
		t.Fatalf("gather chain reached LQ-limited MLP %d; dependence chains should cap it lower", mem.maxOut)
	}
	if mem.maxOut < 8 {
		t.Fatalf("gather chain MLP %d too low; ROB should expose several iterations", mem.maxOut)
	}
}
