package sample

import (
	"fmt"
	"testing"

	"dx100/internal/cache"
	"dx100/internal/cpu"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// fixedMem is a core-side Level with a fixed timed latency and a
// counting functional path.
type fixedMem struct {
	eng     *sim.Engine
	touches int
}

func (m *fixedMem) Access(_ sim.Cycle, _ memspace.PAddr, _ cache.Kind, onDone func(sim.Cycle)) bool {
	if onDone != nil {
		m.eng.After(30, onDone)
	}
	return true
}

func (m *fixedMem) Touch(memspace.PAddr, cache.Kind) { m.touches++ }

// machine builds one core per stream over a shared fixedMem.
func machine(streams ...[]cpu.MicroOp) (*Executor, *fixedMem, *sim.Stats) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	mem := &fixedMem{eng: eng}
	x := &Executor{Eng: eng}
	for i, ops := range streams {
		c := cpu.NewCore(eng, cpu.SkylakeLike(), mem, func(v memspace.VAddr) memspace.PAddr { return memspace.PAddr(v) },
			st, fmt.Sprintf("core%d.", i))
		c.Run(&cpu.SliceStream{Ops: ops})
		x.Cores = append(x.Cores, c)
	}
	return x, mem, st
}

// handOver pauses the cores and runs the engine to the quiescent
// handoff point, as the exp sampler does before Advance.
func handOver(t *testing.T, x *Executor) {
	t.Helper()
	x.Pause()
	if _, err := x.Eng.Run(func() bool {
		if x.Eng.EventsPending() {
			return false
		}
		for _, c := range x.Cores {
			if !c.Quiesced() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func loadStream(n int) []cpu.MicroOp {
	ops := make([]cpu.MicroOp, n)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = cpu.MicroOp{Kind: cpu.Load, Addr: memspace.VAddr(i * memspace.LineSize)}
		} else {
			ops[i] = cpu.MicroOp{Kind: cpu.ALU, Dep1: 1, Weight: 2}
		}
	}
	return ops
}

// TestExecutorAlternatesPhases: detailed windows and quota-bounded
// functional phases alternate to completion, and the cores retire
// every instruction of their streams exactly once.
func TestExecutorAlternatesPhases(t *testing.T) {
	const n, quota = 8000, 1000
	x, mem, st := machine(loadStream(n), loadStream(n))
	done := func() bool { return x.Cores[0].Done() && x.Cores[1].Done() }
	want := float64(n/2*1 + n/2*2)
	phases := 0
	for !done() {
		if _, err := x.Eng.RunUntil(x.Eng.Now()+100, done); err != nil {
			t.Fatal(err)
		}
		if done() {
			break
		}
		handOver(t, x)
		if done() {
			break
		}
		executed, allDone := x.Advance(quota)
		// A core stops at its quota, or short of it at its stream's end;
		// an ALU op of weight 2 can overshoot the quota by one.
		if executed > 2*(quota+1) || (!allDone && executed < 2*quota) {
			t.Fatalf("phase %d executed %d weight, want %d per core", phases, executed, quota)
		}
		x.Resume()
		phases++
		if allDone {
			break
		}
	}
	if phases < 2 {
		t.Fatalf("%d functional phases, want several", phases)
	}
	for i := range x.Cores {
		got := st.Get(fmt.Sprintf("core%d.instructions", i))
		if got != want {
			t.Errorf("core %d retired %v instructions, want %v", i, got, want)
		}
	}
	if mem.touches == 0 {
		t.Fatal("functional phases never touched memory")
	}
}

// TestExecutorDrainUnblocksParkedBarrier: a barrier parked at the head
// of the window when detail hands over is released by the accelerator
// drain hook, and the phase runs the stream to the end.
func TestExecutorDrainUnblocksParkedBarrier(t *testing.T) {
	released := false
	ops := append([]cpu.MicroOp{{Kind: cpu.Barrier, Ready: func() bool { return released }}}, loadStream(100)...)
	x, _, _ := machine(ops)
	drains := 0
	x.Drain = func() int {
		drains++
		released = true
		return 1
	}
	if _, err := x.Eng.RunUntil(100, nil); err != nil {
		t.Fatal(err)
	}
	handOver(t, x)
	if x.Cores[0].Drained() {
		t.Fatal("setup: the barrier did not park the window")
	}
	if _, allDone := x.Advance(1 << 20); !allDone || drains != 1 {
		t.Fatalf("allDone %v after %d drains, want true after 1", allDone, drains)
	}
}

// TestExecutorBarrierWaitsOnPeer: a barrier met in the stream that no
// drain can satisfy waits until a peer core's functional effect
// releases it within the same phase; with the peer at its quota the
// phase ends with the barrier held for the next one.
func TestExecutorBarrierWaitsOnPeer(t *testing.T) {
	released := false
	waiter := append(loadStream(10), cpu.MicroOp{Kind: cpu.Barrier, Ready: func() bool { return released }})
	waiter = append(waiter, loadStream(10)...)
	releaser := append(loadStream(40), cpu.MicroOp{Kind: cpu.Effect, Emit: func(sim.Cycle) { released = true }})
	x, _, _ := machine(waiter, releaser)
	x.Drain = func() int { return 0 }

	// The releaser's effect lies past a quota of 20: the waiter blocks
	// and the phase ends short.
	if executed, allDone := x.Advance(20); allDone || released || executed >= 40 {
		t.Fatalf("executed %d, allDone %v, released %v; want a short phase with the barrier held", executed, allDone, released)
	}
	if x.Cores[0].Done() {
		t.Fatal("waiter finished past an unreleased barrier")
	}
	// The next phase reaches the effect, and the waiter resumes
	// behind it in the same phase.
	if _, allDone := x.Advance(1 << 20); !allDone || !released {
		t.Fatalf("allDone %v, released %v; want both", allDone, released)
	}
}
