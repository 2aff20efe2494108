package exp

import (
	"strings"
	"testing"

	"dx100/internal/cpu"
	"dx100/internal/workloads"
)

// drainDriver pulls every µop out of a driver stream (functionally
// executing its effects against the accelerator's machine).
func drainDriver(t *testing.T, d *driver) (effects, barriers, loads int) {
	t.Helper()
	var op cpu.MicroOp
	for {
		if !d.Next(&op) {
			return effects, barriers, loads
		}
		switch op.Kind {
		case cpu.Effect:
			effects++
			if op.Emit != nil {
				op.Emit(0)
			}
		case cpu.Barrier:
			barriers++
		case cpu.Load:
			loads++
		}
		if effects+barriers+loads > 10_000_000 {
			t.Fatal("driver stream does not terminate")
		}
	}
}

func TestDriverDoubleBufferDetection(t *testing.T) {
	inst := workloads.Registry["IS"](1)
	s := build(inst, Default(DX))
	d, err := newDriver(s.accels[0], inst, 16384, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// IS lowers to a handful of tiles: double buffering must engage.
	if !d.kernels[0].doubleBuffer {
		t.Fatal("IS should double-buffer")
	}
	// Bank alternation: chunk 0 uses tiles < 16, chunk 1 uses >= 16.
	d.kernels[0].setBank(0)
	ops0, err := d.kernels[0].c.TileProgram(0, 16384)
	if err != nil {
		t.Fatal(err)
	}
	d.kernels[0].setBank(1)
	ops1, err := d.kernels[0].c.TileProgram(16384, 32768)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops0 {
		if op.Instr != nil && op.Instr.TD != 63 && int(op.Instr.TD) >= 16 {
			t.Fatalf("chunk 0 dest tile %d in bank 1", op.Instr.TD)
		}
	}
	found := false
	for _, op := range ops1 {
		if op.Instr != nil && int(op.Instr.TD) >= 16 && op.Instr.TD != 63 {
			found = true
		}
	}
	if !found {
		t.Fatal("chunk 1 never used bank 1 tiles")
	}
}

// TestDriverRefusesRangeOverTile: graph.pr.pull's capped hubs carry
// 2048-element inner ranges, so on 1024-element tiles one outer
// iteration cannot fit. The run fails with an error instead of the
// functional machine panicking mid-simulation.
func TestDriverRefusesRangeOverTile(t *testing.T) {
	cfg := Default(DX)
	cfg.Accel.Machine.TileElems = 1024
	_, err := Run("graph.pr.pull", 1, cfg)
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1024-element tile") {
		t.Fatalf("err = %v, want the inner range refused", err)
	}
}

func TestDriverStreamSendsEverything(t *testing.T) {
	inst := workloads.Registry["IS"](1)
	s := build(inst, Default(DX))
	d, err := newDriver(s.accels[0], inst, 16384, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	effects, barriers, _ := drainDriver(t, d)
	if effects == 0 || barriers == 0 {
		t.Fatalf("driver emitted effects=%d barriers=%d", effects, barriers)
	}
	// Every instruction the driver claims to have sent reached the
	// accelerator queue (effects were executed functionally above).
	if s.accels[0].QueueLen() != d.sent {
		t.Fatalf("accel queue %d != driver sent %d", s.accels[0].QueueLen(), d.sent)
	}
	if d.sent < 2 { // at least SLD+IRMW per chunk
		t.Fatalf("sent = %d", d.sent)
	}
}

func TestDriverConsumeEmitsSPDLoads(t *testing.T) {
	inst := workloads.Registry["CG"](1) // Consume workload
	if !inst.Consume {
		t.Fatal("CG should be a consume workload")
	}
	s := build(inst, Default(DX))
	d, err := newDriver(s.accels[0], inst, 16384, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, loads := drainDriver(t, d)
	if loads == 0 {
		t.Fatal("consume driver emitted no scratchpad loads")
	}
}

func TestDriverPartitioning(t *testing.T) {
	inst := workloads.Registry["GZZ"](1)
	s := build(inst, Default(DX))
	d0, err := newDriver(s.accels[0], inst, 16384, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := newDriver(s.accels[0], inst, 16384, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(inst.Len("B"))
	if d0.kernels[0].lo != 0 || d0.kernels[0].hi != n/2 {
		t.Fatalf("part 0 range [%d,%d)", d0.kernels[0].lo, d0.kernels[0].hi)
	}
	if d1.kernels[0].lo != n/2 || d1.kernels[0].hi != n {
		t.Fatalf("part 1 range [%d,%d)", d1.kernels[0].lo, d1.kernels[0].hi)
	}
}

func TestBaselineAtomicsOnlyWhenMulticore(t *testing.T) {
	one := plain("IS", Baseline)
	one.cfg.Cores = 1
	if ref(t, one).result(t).Stats.Get("core0.atomics") != 0 {
		t.Fatal("single-core baseline used atomics")
	}
	if ref(t, plain("IS", Baseline)).result(t).Stats.Get("core0.atomics") == 0 {
		t.Fatal("multi-core baseline skipped atomics")
	}
}

func TestWarmLLCSkipsSPD(t *testing.T) {
	inst := workloads.MicroGather(false, 1)
	cfg := Default(DX)
	cfg.WarmLLC = true
	s := build(inst, cfg)
	s.warmLLC(inst)
	// After warming, the data arrays are resident but the scratchpad
	// region never traveled through the LLC.
	lo, hi := s.accels[0].SPDRange()
	for pa := lo; pa < hi; pa += 1 << 16 {
		if s.hier.LLC.PresentHere(pa) {
			t.Fatal("SPD line warmed into the LLC")
		}
	}
	if !s.hier.LLC.PresentHere(inst.Space.Translate(inst.Binder.Base["A"])) {
		t.Fatal("array A not warmed")
	}
}
