package cpu

import (
	"testing"

	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// TestPendingOpSurvivesROBPressure: an op fetched while the ROB is
// full must be held, not dropped, and the stream must still retire
// completely (regression test for the prefixStream chain bug).
func TestPendingOpSurvivesROBPressure(t *testing.T) {
	cfg := SkylakeLike()
	cfg.ROB = 16
	n := 5000
	ops := make([]MicroOp, n)
	for i := range ops {
		// Slow loads keep the tiny window full.
		if i%4 == 0 {
			ops[i] = MicroOp{Kind: Load, Addr: memspace.VAddr(i * 64)}
		} else {
			ops[i] = MicroOp{Kind: ALU, Dep1: 1}
		}
	}
	_, st, _ := runCore(t, cfg, 80, ops)
	if got := st.Get("core.instructions"); got != float64(n) {
		t.Fatalf("instructions = %v, want %d", got, n)
	}
}

// TestPendingOpPerformanceLinear: the held-op path must not degrade
// quadratically (the old prefixStream chain did).
func TestPendingOpPerformanceLinear(t *testing.T) {
	cfg := SkylakeLike()
	cfg.ROB = 8
	n := 200_000
	i := 0
	s := funcStream(func() (MicroOp, bool) {
		if i >= n {
			return MicroOp{}, false
		}
		i++
		return MicroOp{Kind: ALU, Dep1: 1}, true
	})
	eng := sim.NewEngine()
	eng.MaxCycles = 5_000_000
	st := sim.NewStats()
	mem := &memStub{eng: eng, latency: 1}
	core := NewCore(eng, cfg, mem, ident, st, "core.")
	core.Run(s)
	// With the O(n^2) bug this would blow the 10s test timeout long
	// before MaxCycles; with the fix it takes well under a second.
	if _, err := eng.Run(func() bool { return core.Done() }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("core.instructions") != float64(n) {
		t.Fatalf("instructions = %v", st.Get("core.instructions"))
	}
}

// TestMemPortsLimitIssue: at most MemPorts memory ops issue per cycle.
func TestMemPortsLimitIssue(t *testing.T) {
	cfg := SkylakeLike()
	cfg.MemPorts = 1
	n := 64
	ops := make([]MicroOp, n)
	for i := range ops {
		ops[i] = MicroOp{Kind: Load, Addr: memspace.VAddr(i * 64)}
	}
	endOne, _, _ := runCore(t, cfg, 4, ops)
	cfg.MemPorts = 4
	endFour, _, _ := runCore(t, cfg, 4, append([]MicroOp(nil), ops...))
	if endFour >= endOne {
		t.Fatalf("4 ports (%d) should beat 1 port (%d) on independent loads", endFour, endOne)
	}
}

// TestAtomicFencesYoungerLoads: a load younger than an atomic must not
// issue before the atomic completes.
func TestAtomicFencesYoungerLoads(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 100_000
	st := sim.NewStats()
	mem := &memStub{eng: eng, latency: 50}
	core := NewCore(eng, SkylakeLike(), mem, ident, st, "core.")
	core.Run(&SliceStream{Ops: []MicroOp{
		{Kind: Atomic, Addr: 0x100},
		{Kind: Load, Addr: 0x200},
	}})
	if _, err := eng.Run(func() bool { return core.Done() }); err != nil {
		t.Fatalf("run: %v", err)
	}
	// With a 50-cycle memory and 20-cycle atomic overhead, serial
	// execution needs > 100 cycles; overlap would finish near 55.
	if eng.Now() < 110 {
		t.Fatalf("finished at %d: the younger load overlapped the atomic", eng.Now())
	}
	if mem.maxOut != 1 {
		t.Fatalf("max outstanding = %d, want 1 (fenced)", mem.maxOut)
	}
}

// TestBarrierDoesNotBlockOlderWork: a barrier completes only at the
// head, after everything older retired.
func TestBarrierDoesNotBlockOlderWork(t *testing.T) {
	ops := []MicroOp{
		{Kind: Load, Addr: 0x40},
		{Kind: Barrier}, // Ready nil: passes once at head
		{Kind: Load, Addr: 0x80},
	}
	_, st, _ := runCore(t, SkylakeLike(), 30, ops)
	if st.Get("core.loads") != 2 {
		t.Fatalf("loads = %v", st.Get("core.loads"))
	}
}

// TestDoneCycleRecorded: the core records its completion cycle.
func TestDoneCycleRecorded(t *testing.T) {
	_, st, _ := runCore(t, SkylakeLike(), 10, []MicroOp{{Kind: ALU}})
	if st.Get("core.done_cycle") == 0 {
		t.Fatal("done_cycle not recorded")
	}
}
